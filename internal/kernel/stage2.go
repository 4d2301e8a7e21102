package kernel

import (
	"runtime"

	"cellnpdp/internal/semiring"
)

// Stage2OffDiag resolves the inner dependences of an off-diagonal memory
// block D = MB(I,J) after stage 1 has accumulated every middle-tile
// contribution (Section IV-A, steps 10–12 of Figure 8). L = MB(I,I) and
// R = MB(J,J) are the two finished diagonal blocks the paper's tiled
// flowchart (Figure 4(b)) applies last. All three are tile×tile row-major
// slices with tile side t.
//
// In tile-local coordinates the remaining recurrence is
//
//	D[a][b] = min(D[a][b],
//	              min_{k=a..t-1} L[a][k] + D[k][b],   // k still in tile I
//	              min_{k=0..b-1} D[a][k] + R[k][b])   // k already in tile J
//
// so cell (a,b) depends on cells below it in its column and left of it in
// its row. Computing blocks are therefore processed bottom-up and
// left-to-right. Per CB (p,q), the finished CBs below it are one strip
// over L's row band p, the finished CBs left of it are one strip over R's
// column band q, and the k-ranges that touch the CB itself run in its
// closure (closeF32, closeF64). Every cell sees its terms in ascending k
// within each of those ranges — the order of the 4×4 CB-step
// formulation — so the result is bit-identical to it, ±0 and NaN
// included.
//
// The below-band strips of one CB row band p are issued together, as
// one band call over all t columns (bandF32, bandF64), before the
// row's left-to-right pass. That keeps every cell's term order: the
// strip for CB (p,q) reads only L and the finished rows below band p,
// and writes only CB (p,q), so running it ahead of the other CBs' left
// strips and closures changes no value it reads, and each cell still
// takes its below-band terms first. On the amd64 vector levels the left
// strips are hoisted the same way, a chunk of columns at a time
// (stage2RowF32): a cell's left strip, k ∈ [0, q·4), becomes the
// chunk's band call over k ∈ [0, c0) and then its own strip over
// k ∈ [c0, q·4), the same terms in the same ascending k.
//
// The element type is resolved once per call: each width runs its own
// body on its own band and closure dispatch, which take the vector
// kernels or the Go bodies, whichever the host has. The returned work
// record is StatsStage2OffDiag(t), the count of 4×4 CB steps the strips
// cover plus the closure's relaxations.
func Stage2OffDiag[E semiring.Elem](d, l, r []E, t int) Stats {
	if semiring.Width[E]() == 4 {
		stage2OffDiagF32(semiring.AsWidth[float32](d), semiring.AsWidth[float32](l), semiring.AsWidth[float32](r), t)
	} else {
		stage2OffDiagF64(semiring.AsWidth[float64](d), semiring.AsWidth[float64](l), semiring.AsWidth[float64](r), t)
	}
	return StatsStage2OffDiag(t)
}

// chunkF32 and chunkF64 are the widths of stage 2's R-side chunks: the
// columns of one AVX-512 band pass, which holds a 4×32 float32 or a 4×16
// float64 block of C in registers for its whole k sweep.
const (
	chunkF32 = 32
	chunkF64 = 16
)

// stage2OffDiagF32 is Stage2OffDiag's body on the float32 band
// dispatch. stage2OffDiagF64 is the same loop at double width; the two
// change together.
//
//npdp:hotpath
func stage2OffDiagF32(d, l, r []float32, t int) {
	for p := t/CB - 1; p >= 0; p-- {
		band := p * CB * t
		if k := t - (p+1)*CB; k > 0 {
			bandF32(d[band:], l[band+(p+1)*CB:], d[band+CB*t:], t, t, k)
		}
		stage2RowF32(d, l, r, t, p, 0)
	}
}

// stage2OffDiagF64 is stage2OffDiagF32 on bandF64.
//
//npdp:hotpath
func stage2OffDiagF64(d, l, r []float64, t int) {
	for p := t/CB - 1; p >= 0; p-- {
		band := p * CB * t
		if k := t - (p+1)*CB; k > 0 {
			bandF64(d[band:], l[band+(p+1)*CB:], d[band+CB*t:], t, t, k)
		}
		stage2RowF64(d, l, r, t, p, 0)
	}
}

// Stage2Diag computes a diagonal memory block D = MB(J,J) in place. A
// diagonal block depends only on itself: for cell (a,b), every k in
// [a, b) stays inside the tile. Computing blocks are processed in
// Stage2OffDiag's order, row bands bottom-up and each band left to
// right: the diagonal CB (p,p), a 4×4 triangle solved scalar, then
// the CBs (p,q), q > p, through the same chunked pass with D as L and
// R. Their R terms, k ∈ [(p+1)·4, q·4), read D's finished CBs left of
// (p,q) in its row band and below it in its column. The element type is
// resolved once per call, as in Stage2OffDiag, and the returned work
// record is StatsStage2Diag(t).
func Stage2Diag[E semiring.Elem](d []E, t int) Stats {
	if semiring.Width[E]() == 4 {
		stage2DiagF32(semiring.AsWidth[float32](d), t)
	} else {
		stage2DiagF64(semiring.AsWidth[float64](d), t)
	}
	return StatsStage2Diag(t)
}

// stage2DiagF32 is Stage2Diag's body on the float32 band dispatch.
// stage2DiagF64 is the same loop at double width; the two change
// together.
//
//npdp:hotpath
func stage2DiagF32(d []float32, t int) {
	for p := t/CB - 1; p >= 0; p-- {
		diagScalarCB(d, t, p)
		stage2RowF32(d, d, d, t, p, (p+1)*CB)
	}
}

// stage2DiagF64 is stage2DiagF32 at double width.
//
//npdp:hotpath
func stage2DiagF64(d []float64, t int) {
	for p := t/CB - 1; p >= 0; p-- {
		diagScalarCB(d, t, p)
		stage2RowF64(d, d, d, t, p, (p+1)*CB)
	}
}

// stage2RowF32 runs the left-to-right pass of CB row band p over the
// columns [lo, t), once the band's below-band terms are applied. On the
// amd64 vector levels the columns go in chunks of chunkF32. One band
// call applies every R term k ∈ [lo, c0) to the whole chunk
// [c0, c0+chunkF32): those terms read only finished cells of D's row
// band, left of the chunk, and of R. Each CB (p,q) of the chunk then
// takes its strip over the rest of its R range, k ∈ [c0, q·4), and its
// closure. Elsewhere the band dispatch runs 4-column strips, which a
// hoisted band would only split in two, so the pass is one chunk.
// stage2RowF64 is the same loop at double width; the two change
// together.
//
//npdp:hotpath
func stage2RowF32(d, l, r []float32, t, p, lo int) {
	band, w := p*CB*t, t
	if runtime.GOARCH == "amd64" && live != isaGo {
		w = chunkF32
	}
	for c0 := lo; c0 < t; c0 += w {
		end := min(c0+w, t)
		if k := c0 - lo; k > 0 {
			bandF32(d[band+c0:], d[band+lo:], r[lo*t+c0:], t, end-c0, k)
		}
		for col := c0; col < end; col += CB {
			if k := col - c0; k > 0 {
				bandF32(d[band+col:], d[band+c0:], r[c0*t+col:], t, CB, k)
			}
			closeF32(d, l, r, t, p, col/CB)
		}
	}
}

// stage2RowF64 is stage2RowF32 on bandF64 and closeF64, in chunks of
// chunkF64.
//
//npdp:hotpath
func stage2RowF64(d, l, r []float64, t, p, lo int) {
	band, w := p*CB*t, t
	if runtime.GOARCH == "amd64" && live != isaGo {
		w = chunkF64
	}
	for c0 := lo; c0 < t; c0 += w {
		end := min(c0+w, t)
		if k := c0 - lo; k > 0 {
			bandF64(d[band+c0:], d[band+lo:], r[lo*t+c0:], t, end-c0, k)
		}
		for col := c0; col < end; col += CB {
			if k := col - c0; k > 0 {
				bandF64(d[band+col:], d[band+c0:], r[c0*t+col:], t, CB, k)
			}
			closeF64(d, l, r, t, p, col/CB)
		}
	}
}

// closeCB processes the k-ranges of CB (p,q) that involve the CB's own
// cells — the original Figure 1 code of Figure 8's step 12 — once both
// strips have run. Rows run bottom-up, so every D value read below the
// row is final. A row's four cells stay in locals while the L terms
// (k = a..(p+1)·4-1) and then the R terms (k = q·4..b-1) are applied,
// each in ascending k: the per-cell term order of a cell-by-cell scalar
// pass, whose R terms read the row's cells to the left once final. It is
// the Go body of the closure dispatch and the oracle the closure kernels
// are tested against.
//
//npdp:hotpath
func closeCB[E semiring.Elem](d, l, r []E, t, p, q int) {
	hi, col := (p+1)*CB, q*CB
	// R's in-CB terms R[k][b], k < b, from the diagonal CB (q,q).
	r0 := r[col*t+col : col*t+col+CB]
	r1 := r[(col+1)*t+col : (col+1)*t+col+CB]
	r2 := r[(col+2)*t+col : (col+2)*t+col+CB]
	r01, r02, r03 := r0[1], r0[2], r0[3]
	r12, r13, r23 := r1[2], r1[3], r2[3]
	for a := hi - 1; a >= p*CB; a-- {
		row := d[a*t+col : a*t+col+CB]
		x0, x1, x2, x3 := row[0], row[1], row[2], row[3]
		// k = a reads the row's own cells from memory, which holds them
		// as they were before this pass.
		for i, s := range l[a*t+a : a*t+hi] {
			dk := d[(a+i)*t+col : (a+i)*t+col+CB]
			if w := s + dk[0]; w < x0 {
				x0 = w
			}
			if w := s + dk[1]; w < x1 {
				x1 = w
			}
			if w := s + dk[2]; w < x2 {
				x2 = w
			}
			if w := s + dk[3]; w < x3 {
				x3 = w
			}
		}
		if w := x0 + r01; w < x1 {
			x1 = w
		}
		if w := x0 + r02; w < x2 {
			x2 = w
		}
		if w := x1 + r12; w < x2 {
			x2 = w
		}
		if w := x0 + r03; w < x3 {
			x3 = w
		}
		if w := x1 + r13; w < x3 {
			x3 = w
		}
		if w := x2 + r23; w < x3 {
			x3 = w
		}
		row[0], row[1], row[2], row[3] = x0, x1, x2, x3
	}
}

// diagScalarCB solves the triangular 4×4 computing block (q,q) of a
// diagonal tile with the original recurrence. For its cells, every k in
// [a, b) lies inside the same CB.
//
//npdp:hotpath
func diagScalarCB[E semiring.Elem](d []E, t, q int) {
	lo := q * CB
	for b := lo; b < lo+CB; b++ {
		for a := b - 1; a >= lo; a-- {
			v := d[a*t+b]
			for k := a; k < b; k++ {
				if w := d[a*t+k] + d[k*t+b]; w < v {
					v = w
				}
			}
			d[a*t+b] = v
		}
	}
}
