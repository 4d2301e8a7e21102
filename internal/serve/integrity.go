package serve

import (
	"fmt"
	"math/rand"

	"cellnpdp"
	"cellnpdp/internal/resilience"
	"cellnpdp/internal/tableio"
)

// End-to-end result integrity: a solved table is digested into per-band
// CRC32C checksums immediately after the solve, and the digest is
// re-verified just before the response serializes — so memory corruption
// (a torn concurrent write, a scribbling bug, bad RAM) between compute
// and reply surfaces as a 500 instead of a silently wrong answer. The
// complementary residual spot check re-evaluates the NPDP recurrence at
// sampled cells, catching corruption that happened *during* the solve,
// which a post-hoc checksum by construction cannot see.
//
// Both passes read the table a row at a time through Table.Row, one
// contiguous view per row. The digest runs each row through the block
// seals' codec (resilience.UpdateCRC: the tableio cell encoding into
// CRC32C) and joins the bands into the whole-table CRC with
// resilience.CombineCRC, so each cell is encoded once per digest: it
// costs about what sealing the table's blocks costs, and stays
// byte-identical to a CRC32C over the cells' encoding in row order.

// Digest holds per-band CRC32C checksums of a solved table: the rows are
// cut into bands of BandRows rows, each digested separately so a
// mismatch localizes to a band instead of "somewhere in n²/2 cells".
type Digest struct {
	N        int
	BandRows int
	Bands    []uint32
	Whole    uint32 // CRC32C over the full cell stream
}

// DigestTable computes the per-band CRC32C digest of t. bandRows <= 0
// defaults to 64. A band's CRC covers its rows' cells (i,i)..(i,n-1) in
// row order, each in the tableio element encoding; Whole covers every
// row, and is combined from the bands rather than encoded again.
func DigestTable[E cellnpdp.Elem](t *cellnpdp.Table[E], bandRows int) (Digest, error) {
	if bandRows <= 0 {
		bandRows = 64
	}
	n := t.Len()
	var e E
	width := tableio.ElemWidth(e)
	d := Digest{N: n, BandRows: bandRows, Bands: make([]uint32, 0, (n+bandRows-1)/bandRows)}
	for lo := 0; lo < n; lo += bandRows {
		var band uint32
		cells := 0
		for i := lo; i < min(lo+bandRows, n); i++ {
			row, err := t.Row(i)
			if err != nil {
				return Digest{}, err
			}
			band = resilience.UpdateCRC(band, row)
			cells += len(row)
		}
		d.Bands = append(d.Bands, band)
		d.Whole = resilience.CombineCRC(d.Whole, band, width*cells)
	}
	return d, nil
}

// VerifyDigest recomputes t's digest and compares band by band. The
// first mismatching band is reported with its row range.
func VerifyDigest[E cellnpdp.Elem](t *cellnpdp.Table[E], d Digest) error {
	if t.Len() != d.N {
		return fmt.Errorf("serve: digest is for n=%d, table has n=%d", d.N, t.Len())
	}
	got, err := DigestTable(t, d.BandRows)
	if err != nil {
		return err
	}
	if len(got.Bands) != len(d.Bands) {
		return fmt.Errorf("serve: digest has %d bands, recomputed %d", len(d.Bands), len(got.Bands))
	}
	for b := range d.Bands {
		if got.Bands[b] != d.Bands[b] {
			return fmt.Errorf("serve: CRC32C mismatch in rows %d..%d: solved %08x, pre-serialize %08x",
				b*d.BandRows, min((b+1)*d.BandRows, d.N)-1, d.Bands[b], got.Bands[b])
		}
	}
	if got.Whole != d.Whole {
		return fmt.Errorf("serve: whole-table CRC32C mismatch: solved %08x, pre-serialize %08x", d.Whole, got.Whole)
	}
	return nil
}

// ResidualSpotCheck re-evaluates the NPDP recurrence at `samples`
// seeded-random cells: a solved table is a min-plus fixed point, so
// every cell must satisfy d[i][j] ≤ d[i][k] + d[k][j] for all interior
// k (the exact float comparison holds because each cell was minimized
// over exactly these sums), and the diagonal must be the ⊗ identity.
// Torn or corrupted-upward cells violate the inequality; the check is
// O(samples·n), trivially cheap next to the O(n³) solve. It returns the
// number of cells checked.
func ResidualSpotCheck[E cellnpdp.Elem](t *cellnpdp.Table[E], samples int, seed int64) (int, error) {
	if samples <= 0 {
		samples = 64
	}
	n := t.Len()
	rng := rand.New(rand.NewSource(seed))
	checked := 0
	for s := 0; s < samples; s++ {
		i := rng.Intn(n)
		j := i + rng.Intn(n-i)
		ri, err := t.Row(i)
		if err != nil {
			return checked, err
		}
		v := ri[j-i]
		if v != v { // NaN never leaves a healthy engine
			return checked, fmt.Errorf("serve: residual check: d[%d][%d] is NaN", i, j)
		}
		if i == j {
			if v != 0 {
				return checked, fmt.Errorf("serve: residual check: diagonal d[%d][%d] = %v, want 0", i, j, v)
			}
			checked++
			continue
		}
		for k := i + 1; k < j; k++ {
			rk, err := t.Row(k)
			if err != nil {
				return checked, err
			}
			if w := ri[k-i] + rk[j-k]; w < v {
				return checked, fmt.Errorf("serve: residual check: d[%d][%d] = %v exceeds d[%d][%d]+d[%d][%d] = %v — not a min-plus fixed point",
					i, j, v, i, k, k, j, w)
			}
		}
		checked++
	}
	return checked, nil
}
