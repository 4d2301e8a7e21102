package cachesim

import (
	"cellnpdp/internal/kernel"
	"cellnpdp/internal/tri"
)

// The trace generators replay loop nests as address streams:
// TraceOriginal mirrors npdp.SolveSerial on the row-major layout,
// TraceTiled models the paper's CB-step loop on the new data layout
// (npdp.SolveTiled's block order, with stage 1 and stage 2 as 4×4
// computing-block steps, each loading and storing its C block; the
// host's band kernels touch the same cells but keep C in registers
// across a band, so TraceTiled is the paper's procedure, not
// SolveTiled's kernel), and TraceTiledRowMajor replays the tiled
// computation on the row-major layout (the prior work's tiling,
// Figure 4). Values never affect the
// access pattern — every relaxation reads and writes the same cells
// regardless of which side wins the min — so the streams carry addresses
// only.

// TraceOriginal replays the Figure 1 algorithm's accesses: per cell
// (i,j), one read and one final write of d[i][j] (it lives in a register
// across the k loop) plus reads of d[i][k] and d[k][j] per step.
func TraceOriginal(h *Hierarchy, n, elemBytes int) {
	m := tri.NewRowMajor[float32](n)
	addr := func(i, j int) uint64 { return uint64(m.Index(i, j) * elemBytes) }
	for j := 0; j < n; j++ {
		for i := j - 1; i >= 0; i-- {
			h.Read(addr(i, j))
			for k := i; k < j; k++ {
				h.Read(addr(i, k))
				h.Read(addr(k, j))
			}
			h.Write(addr(i, j))
		}
	}
}

// blockAddr maps (block row, block col, in-block row, in-block col) to a
// byte address under some layout.
type blockAddr func(bi, bj, a, b int) uint64

// tiledReplay replays the tiled engine's loop nest against an arbitrary
// layout's address function.
type tiledReplay struct {
	h    *Hierarchy
	addr blockAddr
	tile int
}

// cbStep replays one 4×4 computing-block step C = min(C, A ⊗ B): the
// kernel loads the A, B and C rows, updates C in registers, stores C.
// Each operand is (block, CB row index, CB col index) in its own block.
func (r *tiledReplay) cbStep(cBlk [2]int, cp, cq int, aBlk [2]int, ap, aq int, bBlk [2]int, bp, bq int) {
	for row := 0; row < kernel.CB; row++ {
		for col := 0; col < kernel.CB; col++ {
			r.h.Read(r.addr(aBlk[0], aBlk[1], ap*kernel.CB+row, aq*kernel.CB+col))
			r.h.Read(r.addr(bBlk[0], bBlk[1], bp*kernel.CB+row, bq*kernel.CB+col))
			r.h.Read(r.addr(cBlk[0], cBlk[1], cp*kernel.CB+row, cq*kernel.CB+col))
		}
	}
	for row := 0; row < kernel.CB; row++ {
		for col := 0; col < kernel.CB; col++ {
			r.h.Write(r.addr(cBlk[0], cBlk[1], cp*kernel.CB+row, cq*kernel.CB+col))
		}
	}
}

// inner replays the in-CB scalar code of Figure 8's step 12 for CB (p,q)
// of block (bi,bj), cell by cell, with diagonal blocks L = (li,lj) and
// R = (ri,rj).
func (r *tiledReplay) inner(bi, bj, li, lj, ri, rj, p, q int) {
	for a := p*kernel.CB + kernel.CB - 1; a >= p*kernel.CB; a-- {
		for b := q * kernel.CB; b < q*kernel.CB+kernel.CB; b++ {
			r.h.Read(r.addr(bi, bj, a, b))
			for k := a; k < (p+1)*kernel.CB; k++ {
				r.h.Read(r.addr(li, lj, a, k))
				r.h.Read(r.addr(bi, bj, k, b))
			}
			for k := q * kernel.CB; k < b; k++ {
				r.h.Read(r.addr(bi, bj, a, k))
				r.h.Read(r.addr(ri, rj, k, b))
			}
			r.h.Write(r.addr(bi, bj, a, b))
		}
	}
}

// diagCB replays kernel.diagScalarCB for CB (q,q) of diagonal block bj.
func (r *tiledReplay) diagCB(bj, q int) {
	lo := q * kernel.CB
	for b := lo; b < lo+kernel.CB; b++ {
		for a := b - 1; a >= lo; a-- {
			r.h.Read(r.addr(bj, bj, a, b))
			for k := a; k < b; k++ {
				r.h.Read(r.addr(bj, bj, a, k))
				r.h.Read(r.addr(bj, bj, k, b))
			}
			r.h.Write(r.addr(bj, bj, a, b))
		}
	}
}

// run replays the whole tiled engine over an m×m block grid.
func (r *tiledReplay) run(m int) {
	cbm := r.tile / kernel.CB
	for bj := 0; bj < m; bj++ {
		for bi := bj; bi >= 0; bi-- {
			if bi == bj {
				// Stage2Diag: CB columns ascending, rows descending.
				for q := 0; q < cbm; q++ {
					for p := q; p >= 0; p-- {
						if p == q {
							r.diagCB(bj, q)
							continue
						}
						for kp := p + 1; kp < q; kp++ {
							r.cbStep([2]int{bj, bj}, p, q, [2]int{bj, bj}, p, kp, [2]int{bj, bj}, kp, q)
						}
						r.inner(bj, bj, bj, bj, bj, bj, p, q)
					}
				}
				continue
			}
			// Stage 1: middle-tile block products.
			for k := bi + 1; k < bj; k++ {
				for p := 0; p < cbm; p++ {
					for kp := 0; kp < cbm; kp++ {
						for q := 0; q < cbm; q++ {
							r.cbStep([2]int{bi, bj}, p, q, [2]int{bi, k}, p, kp, [2]int{k, bj}, kp, q)
						}
					}
				}
			}
			// Stage 2: bottom-up, left-to-right computing blocks.
			for p := cbm - 1; p >= 0; p-- {
				for q := 0; q < cbm; q++ {
					for kp := p + 1; kp < cbm; kp++ {
						r.cbStep([2]int{bi, bj}, p, q, [2]int{bi, bi}, p, kp, [2]int{bi, bj}, kp, q)
					}
					for kq := 0; kq < q; kq++ {
						r.cbStep([2]int{bi, bj}, p, q, [2]int{bi, bj}, p, kq, [2]int{bj, bj}, kq, q)
					}
					r.inner(bi, bj, bi, bi, bj, bj, p, q)
				}
			}
		}
	}
}

// TraceTiled replays the paper's CB-step tiled procedure on the new
// data layout: every block's cells are consecutive in memory.
func TraceTiled(h *Hierarchy, n, tile, elemBytes int) {
	layout := tri.NewTiled[float32](n, tile)
	r := &tiledReplay{
		h:    h,
		tile: tile,
		addr: func(bi, bj, a, b int) uint64 {
			return uint64((layout.BlockBytesOffset(bi, bj) + a*tile + b) * elemBytes)
		},
	}
	r.run(layout.Blocks())
}

// TraceTiledRowMajor replays the same tiled computation with blocks
// addressed through the row-major triangular layout — the prior work's
// tiling (Figure 4), where a block's rows are scattered across the
// triangle. Padding cells (below the diagonal inside diagonal blocks, or
// past n) map to a disjoint scratch region so the stream stays
// well-defined.
func TraceTiledRowMajor(h *Hierarchy, n, tile, elemBytes int) {
	m := (n + tile - 1) / tile
	np := m * tile
	layout := tri.NewRowMajor[float32](np)
	scratch := uint64(tri.CellCount(np) * elemBytes)
	r := &tiledReplay{
		h:    h,
		tile: tile,
		addr: func(bi, bj, a, b int) uint64 {
			i, j := bi*tile+a, bj*tile+b
			if i > j {
				return scratch + uint64((i*np+j)*elemBytes)
			}
			return uint64(layout.Index(i, j) * elemBytes)
		},
	}
	r.run(m)
}

// TraceOriginal4 adapts TraceOriginal to the four-argument trace
// signature the harness sweeps over (the tile argument is unused by the
// untiled original).
func TraceOriginal4(h *Hierarchy, n, _, elemBytes int) {
	TraceOriginal(h, n, elemBytes)
}
