package serve

import (
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cellnpdp"
	"cellnpdp/internal/tableio"
	"cellnpdp/internal/workload"
)

// solvedTable returns a solved chain instance for integrity tests.
func solvedTable(t *testing.T, n int) *cellnpdp.Table[float32] {
	t.Helper()
	return solvedChain[float32](t, n, 7)
}

// solvedChain returns the serial solve of the seeded chain instance at
// width E.
func solvedChain[E cellnpdp.Elem](t *testing.T, n int, seed int64) *cellnpdp.Table[E] {
	t.Helper()
	tbl, err := cellnpdp.NewTable[E](n)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range workload.ChainSuperdiagonal[E](n, seed) {
		if err := tbl.Set(i, i+1, v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cellnpdp.Solve(tbl, cellnpdp.Options{Engine: cellnpdp.Serial}); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// perCellDigest is the digest as a CRC32C over one cell at a time, read
// through At: the definition DigestTable's row-at-a-time codec must
// reproduce byte for byte.
func perCellDigest[E cellnpdp.Elem](t *testing.T, tbl *cellnpdp.Table[E], bandRows int) Digest {
	t.Helper()
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	n := tbl.Len()
	d := Digest{N: n, BandRows: bandRows}
	whole := crc32.New(castagnoli)
	buf := make([]byte, 8)
	var e E
	width := tableio.ElemWidth(e)
	for lo := 0; lo < n; lo += bandRows {
		band := crc32.New(castagnoli)
		for i := lo; i < min(lo+bandRows, n); i++ {
			for j := i; j < n; j++ {
				v, err := tbl.At(i, j)
				if err != nil {
					t.Fatal(err)
				}
				tableio.PutElem(buf, v)
				band.Write(buf[:width])
				whole.Write(buf[:width])
			}
		}
		d.Bands = append(d.Bands, band.Sum32())
	}
	d.Whole = whole.Sum32()
	return d
}

func requireDigest(t *testing.T, name string, got, want Digest) {
	t.Helper()
	if got.N != want.N || got.BandRows != want.BandRows || got.Whole != want.Whole || !slices.Equal(got.Bands, want.Bands) {
		t.Fatalf("%s: digest n=%d band=%d bands=%#08x whole=%#08x, want n=%d band=%d bands=%#08x whole=%#08x",
			name, got.N, got.BandRows, got.Bands, got.Whole, want.N, want.BandRows, want.Bands, want.Whole)
	}
}

// The digest is on the wire (clients verify the response's crc32c), so
// its values are pinned: these are the per-cell digest's values for the
// seed-7 chain instances, at both widths.
func TestDigestKnownAnswers(t *testing.T) {
	for _, c := range []struct {
		n, band int
		f32     []uint32
		whole32 uint32
		f64     []uint32
		whole64 uint32
	}{
		{2, 0, []uint32{0x422c3c59}, 0x422c3c59, []uint32{0xd85a0957}, 0xd85a0957},
		{3, 1, []uint32{0x934e84b2, 0x65f37cc9, 0x48674bc7}, 0x7e878d7c,
			[]uint32{0x94f52ef4, 0xdc24dff9, 0x8c28b28a}, 0x1884addc},
		{100, 16, []uint32{0xfc294614, 0x2e42f70c, 0xb6a65d78, 0xe5c3c991, 0x262d75ed, 0xbaaab7b6, 0x078624ad}, 0x4b48f984,
			[]uint32{0x9792c918, 0xc01b087b, 0x105e6806, 0x23f8a333, 0x04c347dc, 0x54886393, 0xe8e3eef6}, 0xf40d7e39},
		{257, 64, []uint32{0x2ac2e248, 0xa535d53e, 0xb6c2b785, 0x17310898, 0x48674bc7}, 0x74538b3f,
			[]uint32{0x7cc903c4, 0xc909b2f9, 0x2934acfa, 0xfafe97ab, 0x8c28b28a}, 0x07bd11fc},
	} {
		band := c.band
		if band == 0 {
			band = 64
		}
		d32, err := DigestTable(solvedChain[float32](t, c.n, 7), c.band)
		if err != nil {
			t.Fatal(err)
		}
		requireDigest(t, fmt.Sprintf("float32 n=%d", c.n), d32, Digest{N: c.n, BandRows: band, Bands: c.f32, Whole: c.whole32})
		d64, err := DigestTable(solvedChain[float64](t, c.n, 7), c.band)
		if err != nil {
			t.Fatal(err)
		}
		requireDigest(t, fmt.Sprintf("float64 n=%d", c.n), d64, Digest{N: c.n, BandRows: band, Bands: c.f64, Whole: c.whole64})
	}
}

// DigestTable against the per-cell definition over every band edge case
// (one-row bands, bands that do not divide n, one band wider than the
// table) on arbitrary cell values: ±0, NaN and ±Inf included.
func TestDigestMatchesPerCell(t *testing.T) {
	for _, n := range []int{2, 3, 63, 64, 65, 257} {
		for _, band := range []int{1, 7, 64, n + 5} {
			digestMatchesPerCell[float32](t, n, band)
			digestMatchesPerCell[float64](t, n, band)
		}
	}
}

func digestMatchesPerCell[E cellnpdp.Elem](t *testing.T, n, band int) {
	t.Helper()
	tbl, err := cellnpdp.NewTable[E](n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(n*1000 + band)))
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := E(rng.NormFloat64() * 1e3)
			if rng.Intn(8) == 0 {
				v = E(specials[rng.Intn(len(specials))])
			}
			if err := tbl.Set(i, j, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, err := DigestTable(tbl, band)
	if err != nil {
		t.Fatal(err)
	}
	var e E
	requireDigest(t, fmt.Sprintf("%T n=%d band=%d", e, n, band), got, perCellDigest(t, tbl, band))
}

func TestDigestRoundTrip(t *testing.T) {
	tbl := solvedTable(t, 100)
	d, err := DigestTable(tbl, 16)
	if err != nil {
		t.Fatal(err)
	}
	if wantBands := (100 + 15) / 16; len(d.Bands) != wantBands {
		t.Fatalf("digest has %d bands, want %d", len(d.Bands), wantBands)
	}
	if err := VerifyDigest(tbl, d); err != nil {
		t.Fatalf("pristine table failed verification: %v", err)
	}
}

func TestDigestDetectsCorruptionAndLocalizesBand(t *testing.T) {
	tbl := solvedTable(t, 100)
	d, err := DigestTable(tbl, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a cell in the band covering rows 48..63.
	v, _ := tbl.At(50, 70)
	if err := tbl.Set(50, 70, v+1); err != nil {
		t.Fatal(err)
	}
	verr := VerifyDigest(tbl, d)
	if verr == nil {
		t.Fatal("corrupted table passed verification")
	}
	if !strings.Contains(verr.Error(), "rows 48..63") {
		t.Fatalf("mismatch not localized to rows 48..63: %v", verr)
	}
}

func TestVerifyDigestRejectsWrongSize(t *testing.T) {
	tbl := solvedTable(t, 64)
	d, err := DigestTable(tbl, 0)
	if err != nil {
		t.Fatal(err)
	}
	other := solvedTable(t, 100)
	if err := VerifyDigest(other, d); err == nil {
		t.Fatal("digest for n=64 verified against n=100 table")
	}
}

func TestResidualSpotCheckPasses(t *testing.T) {
	tbl := solvedTable(t, 128)
	checked, err := ResidualSpotCheck(tbl, 200, 1)
	if err != nil {
		t.Fatalf("solved table failed residual check: %v", err)
	}
	if checked != 200 {
		t.Fatalf("checked %d cells, want 200", checked)
	}
}

// sampledCell replays the spot-checker's seeded sampler and returns the
// index (0-based) and coordinates of the first sample satisfying keep,
// so tests can corrupt a cell that is guaranteed to be visited.
func sampledCell(n int, seed int64, keep func(i, j int) bool) (idx, i, j int, ok bool) {
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < 10000; s++ {
		i := rng.Intn(n)
		j := i + rng.Intn(n-i)
		if keep(i, j) {
			return s, i, j, true
		}
	}
	return 0, 0, 0, false
}

func TestResidualSpotCheckCatchesTornCell(t *testing.T) {
	const n, seed = 128, 1
	// A cell with at least one interior split point (j ≥ i+2).
	idx, i, j, ok := sampledCell(n, seed, func(i, j int) bool { return j >= i+2 })
	if !ok {
		t.Fatal("sampler never produced a cell with interior splits")
	}
	tbl := solvedTable(t, n)
	// A solved cell is the min over its split sums; pushing it above any
	// one of them breaks the fixed point.
	v, _ := tbl.At(i, j)
	if err := tbl.Set(i, j, v*4+1000); err != nil {
		t.Fatal(err)
	}
	_, err := ResidualSpotCheck(tbl, idx+1, seed)
	if err == nil {
		t.Fatalf("torn cell (%d, %d) not caught by sample %d", i, j, idx)
	}
	if !strings.Contains(err.Error(), "fixed point") {
		t.Fatalf("unexpected residual error: %v", err)
	}
}

func TestResidualSpotCheckCatchesNaNAndDiagonal(t *testing.T) {
	const n, seed = 32, 1
	idx, i, j, ok := sampledCell(n, seed, func(i, j int) bool { return i < j })
	if !ok {
		t.Fatal("sampler never produced an off-diagonal cell")
	}
	tbl := solvedTable(t, n)
	nan := float32(0)
	nan = nan / nan
	if err := tbl.Set(i, j, nan); err != nil {
		t.Fatal(err)
	}
	if _, err := ResidualSpotCheck(tbl, idx+1, seed); err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Fatalf("NaN at sampled cell (%d, %d): err = %v, want NaN report", i, j, err)
	}

	idx, i, _, ok = sampledCell(n, seed, func(i, j int) bool { return i == j })
	if !ok {
		t.Fatal("sampler never produced a diagonal cell")
	}
	tbl2 := solvedTable(t, n)
	if err := tbl2.Set(i, i, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ResidualSpotCheck(tbl2, idx+1, seed); err == nil || !strings.Contains(err.Error(), "diagonal") {
		t.Fatalf("nonzero diagonal at sampled cell %d: err = %v, want diagonal report", i, err)
	}
}
