package tri

import "cellnpdp/internal/semiring"

// ToTiled copies a row-major table into a freshly allocated tiled table
// with the given tile side. Padding cells keep the min-plus identity.
func ToTiled[E semiring.Elem](src *RowMajor[E], tile int) *Tiled[E] {
	dst := NewTiled[E](src.Len(), tile)
	rowSegments(src, dst, func(row, blk []E) { copy(blk, row) })
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
	rowSegments(dst, src, func(row, blk []E) { copy(row, blk) })
}

// rowSegments calls f once per row segment, the cells of row i that fall
// in block column bj, with the two equal-length slices holding it: part
// of rm's row i, and row i%tile of t's block (i/tile, bj). The segments
// cover every stored cell once and no padding cell. A segment is
// contiguous in both layouts, so a conversion is one copy per segment and
// streams through both tables; a walk down the columns of the row-major
// triangle would meet the non-uniform strides of the paper's Section III.
func rowSegments[E semiring.Elem](rm *RowMajor[E], t *Tiled[E], f func(row, blk []E)) {
	n, tile := rm.Len(), t.Tile()
	for i := 0; i < n; i++ {
		bi, a := i/tile, i%tile
		for bj := bi; bj < t.Blocks(); bj++ {
			lo := max(i, bj*tile)
			hi := min(n, (bj+1)*tile) - 1
			off := a*tile + lo - bj*tile
			f(rm.Row(i, lo, hi), t.Block(bi, bj)[off:off+hi-lo+1])
		}
	}
}
