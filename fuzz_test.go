package cellnpdp

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"cellnpdp/internal/kernel"
	"cellnpdp/internal/tableio"
	"cellnpdp/internal/tri"
	"cellnpdp/internal/zuker"
)

// FuzzStep4x4 cross-checks the production computing-block step against a
// straightforward scalar evaluation on arbitrary inputs, including
// negatives, denormals and huge values.
func FuzzStep4x4(f *testing.F) {
	f.Add(float32(1), float32(2), float32(3), uint16(0))
	f.Add(float32(-1e30), float32(1e30), float32(0.5), uint16(7))
	f.Add(float32(1e-38), float32(-1e-38), float32(1e9), uint16(255))
	f.Fuzz(func(t *testing.T, a0, b0, c0 float32, mix uint16) {
		if math.IsNaN(float64(a0)) || math.IsNaN(float64(b0)) || math.IsNaN(float64(c0)) {
			t.Skip("NaN breaks min's trichotomy; the engines never produce it")
		}
		const stride = 4
		var a, b, c1, c2 [16]float32
		for i := 0; i < 16; i++ {
			// Derive varied lanes deterministically from the seeds.
			s := float32(int(mix>>(uint(i)%16))&3 - 1)
			a[i] = a0 + s*float32(i)
			b[i] = b0 - s*float32(i*i)
			c1[i] = c0 + float32(i%5)
			c2[i] = c1[i]
		}
		kernel.Step4x4(c1[:], a[:], b[:], stride)
		for r := 0; r < 4; r++ {
			for col := 0; col < 4; col++ {
				v := c2[r*stride+col]
				for k := 0; k < 4; k++ {
					if w := a[r*stride+k] + b[k*stride+col]; w < v {
						v = w
					}
				}
				if c1[r*stride+col] != v {
					t.Fatalf("cell (%d,%d): kernel %v vs scalar %v", r, col, c1[r*stride+col], v)
				}
			}
		}
	})
}

// FuzzTableIO checks that the reader never panics on arbitrary bytes and
// that valid files round-trip.
func FuzzTableIO(f *testing.F) {
	src := tri.NewRowMajor[float32](5)
	tri.Fill[float32](src, func(i, j int) float32 { return float32(i*10 + j) })
	var buf bytes.Buffer
	if err := tableio.Write(&buf, src); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("NPDPgarbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := tableio.Read[float32](bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Anything accepted must round-trip to identical bytes.
		var out bytes.Buffer
		if err := tableio.Write(&out, m); err != nil {
			t.Fatalf("rewrite failed: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatal("accepted file did not round-trip")
		}
	})
}

// FuzzCheckpointRoundTrip writes arbitrary bytes over a small
// checkpoint's index and resumes it. The index decides which final
// blocks a resume trusts, so every input must resume to a table
// identical to Serial or fail with an error — never panic, and never
// trust bytes the solve did not commit.
func FuzzCheckpointRoundTrip(f *testing.F) {
	const n, seed = 48, 48
	opts := Options{Engine: Parallel, Workers: 2, BlockBytes: 256}
	ref := buildRandom(f, n, seed)
	if _, err := Solve(ref, Options{Engine: Serial}); err != nil {
		f.Fatal(err)
	}
	ck := filepath.Join(f.TempDir(), "solve.npsp")
	first := opts
	first.CheckpointPath = ck
	if _, err := Solve(buildRandom(f, n, seed), first); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(ck)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(ck + ".idx")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(append([]byte(nil), valid[:len(valid)/2]...))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("NPSXgarbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, idx []byte) {
		path := filepath.Join(t.TempDir(), "solve.npsp")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path+".idx", idx, 0o644); err != nil {
			t.Fatal(err)
		}
		resume := opts
		resume.CheckpointPath, resume.Resume = path, true
		got := buildRandom(t, n, seed)
		if _, err := Solve(got, resume); err != nil {
			return // rejection is fine; panics and wrong tables are not
		}
		assertTablesEqual(t, ref, got, "resumed from a rewritten index")
	})
}

// FuzzFoldRNA checks the folding pipeline end to end on arbitrary ASCII:
// parse errors are fine, but accepted sequences must fold, trace back and
// validate.
func FuzzFoldRNA(f *testing.F) {
	f.Add("GGGAAAACCC")
	f.Add("acguACGUtt")
	f.Add("GCGCGCGCGAAAACGCGCGCGC")
	f.Fuzz(func(t *testing.T, s string) {
		if len(s) > 200 {
			t.Skip("bounded size keeps the fuzz loop fast")
		}
		seq, err := zuker.ParseSeq(s)
		if err != nil {
			return
		}
		res, err := zuker.Fold(seq, zuker.Options{Engine: zuker.EngineSerial})
		if err != nil {
			t.Fatalf("fold of valid sequence failed: %v", err)
		}
		if res.MFE > 0 {
			t.Fatalf("positive MFE %g", res.MFE)
		}
		st, err := res.Traceback()
		if err != nil {
			t.Fatalf("traceback failed: %v", err)
		}
		if err := st.Validate(seq); err != nil {
			t.Fatal(err)
		}
	})
}
