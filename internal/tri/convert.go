package tri

import (
	"fmt"

	"cellnpdp/internal/semiring"
)

// ToTiled copies a row-major table into a freshly allocated tiled table
// with the given tile side. Padding cells keep the min-plus identity.
func ToTiled[E semiring.Elem](src *RowMajor[E], tile int) *Tiled[E] {
	dst := NewTiled[E](src.Len(), tile)
	m := dst.Blocks()
	for bi := 0; bi < m; bi++ {
		rowSegments(src, tile, bi, bi, m, func(row []E, bj, off int) { copy(dst.Block(bi, bj)[off:], row) })
	}
	return dst
}

// ToRowMajor copies a tiled table into a freshly allocated row-major
// table, dropping the padding.
func ToRowMajor[E semiring.Elem](src *Tiled[E]) *RowMajor[E] {
	dst := NewRowMajor[E](src.Len())
	Copy(dst, src)
	return dst
}

// Copy copies every stored cell of the tiled table src into the
// row-major table dst, dropping the padding. The tables must have the
// same problem size.
func Copy[E semiring.Elem](dst *RowMajor[E], src *Tiled[E]) {
	if dst.Len() != src.Len() {
		panic("tri: Copy size mismatch")
	}
	m := src.Blocks()
	for bi := 0; bi < m; bi++ {
		rowSegments(dst, src.Tile(), bi, bi, m, func(row []E, bj, off int) { copy(row, src.Block(bi, bj)[off:]) })
	}
}

// GatherBlock copies memory block (bi, bj) of the row-major table src,
// cut into tile×tile blocks, into blk: the block's Tile²-cell row-major
// slice, as tiled tables and spill slots hold it. Padding cells get the
// min-plus identity. It is ToTiled for one block, without the table.
func GatherBlock[E semiring.Elem](blk []E, src *RowMajor[E], tile, bi, bj int) {
	checkBlock(len(blk), src.Len(), tile, bi, bj)
	if bi == bj || (bj+1)*tile > src.Len() {
		inf := semiring.Inf[E]()
		for k := range blk {
			blk[k] = inf
		}
	}
	rowSegments(src, tile, bi, bj, bj+1, func(row []E, _, off int) { copy(blk[off:], row) })
}

// ScatterBlock copies the stored cells of memory block (bi, bj), held
// in blk as GatherBlock lays it out, into the row-major table dst,
// dropping the padding. It is Copy for one block.
func ScatterBlock[E semiring.Elem](dst *RowMajor[E], blk []E, tile, bi, bj int) {
	checkBlock(len(blk), dst.Len(), tile, bi, bj)
	rowSegments(dst, tile, bi, bj, bj+1, func(row []E, _, off int) { copy(row, blk[off:]) })
}

// checkBlock panics unless (bi, bj) is an upper-triangle block of an
// n-point table cut into tile×tile blocks and cells holds one block.
func checkBlock(cells, n, tile, bi, bj int) {
	if tile <= 0 || cells != tile*tile {
		panic(fmt.Sprintf("tri: %d cells do not hold one %d×%d block", cells, tile, tile))
	}
	if m := (n + tile - 1) / tile; bi < 0 || bj < bi || bj >= m {
		panic(fmt.Sprintf("tri: block (%d,%d) outside upper triangle of %d tiles", bi, bj, m))
	}
}

// rowSegments calls f once per row segment of block row bi in block
// columns [bjLo, bjHi), bjLo ≥ bi: for each row i of the block row,
// ascending, and each of those block columns bj, ascending, the cells
// of row i that fall in block column bj. f gets the part of rm's row i
// holding them, bj, and the segment's offset in the block's tile×tile
// row-major cells. The segments cover every stored cell of those blocks
// once and no padding cell. A segment is contiguous in both layouts, so
// a conversion is one copy per segment and streams through both tables;
// a walk down the columns of the row-major triangle would meet the
// non-uniform strides of the paper's Section III.
func rowSegments[E semiring.Elem](rm *RowMajor[E], tile, bi, bjLo, bjHi int, f func(row []E, bj, off int)) {
	n := rm.Len()
	for i := bi * tile; i < min(n, (bi+1)*tile); i++ {
		a := i - bi*tile
		for bj := bjLo; bj < bjHi; bj++ {
			lo := max(i, bj*tile)
			hi := min(n, (bj+1)*tile) - 1
			f(rm.Row(i, lo, hi), bj, a*tile+lo-bj*tile)
		}
	}
}
