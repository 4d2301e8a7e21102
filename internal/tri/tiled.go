package tri

import (
	"fmt"

	"cellnpdp/internal/semiring"
)

// Tiled is the paper's new data layout (NDL, Figure 5): the triangle is
// cut into square memory blocks of tile×tile cells and every block is
// stored contiguously in row-major order, so a whole block moves with a
// single large DMA transfer. Triangular (diagonal) blocks are padded into
// squares; the padding cells hold the min-plus identity so they can never
// win a min and therefore never affect results (Section IV-A notes the
// padding overhead is trivial).
//
// Blocks are identified by their tile coordinates (bi, bj), 0 ≤ bi ≤ bj <
// Blocks(), and ordered in memory row-major over the upper triangle of
// blocks, mirroring Figure 5.
type Tiled[E semiring.Elem] struct {
	n        int // logical problem size
	np       int // padded size: Blocks() * tile
	tile     int
	m        int // number of tiles per side
	cells    []E
	blockOff []int // blockOff[bi] is the block id of block (bi, bi)
}

// NewTiled allocates an n-point tiled table with the given tile side.
// All cells, including padding, start at the min-plus identity.
func NewTiled[E semiring.Elem](n, tile int) *Tiled[E] {
	if err := CheckSize(n); err != nil {
		panic(err)
	}
	if tile <= 0 {
		panic(fmt.Sprintf("tri: tile side must be positive, got %d", tile))
	}
	m := (n + tile - 1) / tile
	t := &Tiled[E]{
		n:        n,
		np:       m * tile,
		tile:     tile,
		m:        m,
		cells:    make([]E, m*(m+1)/2*tile*tile),
		blockOff: make([]int, m),
	}
	id := 0
	for bi := 0; bi < m; bi++ {
		t.blockOff[bi] = id
		id += m - bi
	}
	inf := semiring.Inf[E]()
	for k := range t.cells {
		t.cells[k] = inf
	}
	return t
}

// Len returns the logical problem size n.
func (t *Tiled[E]) Len() int { return t.n }

// Tile returns the memory-block side length in cells.
func (t *Tiled[E]) Tile() int { return t.tile }

// Blocks returns the number of tiles per side.
func (t *Tiled[E]) Blocks() int { return t.m }

// BlockID returns the dense index of block (bi, bj) among the stored
// upper-triangle blocks.
func (t *Tiled[E]) BlockID(bi, bj int) int { return t.blockOff[bi] + (bj - bi) }

// BlockBytesOffset returns the flat cell offset of block (bi, bj) in the
// backing store; the block occupies Tile()² consecutive cells from there.
// DMA modeling uses it as the block's main-memory address.
func (t *Tiled[E]) BlockBytesOffset(bi, bj int) int {
	return t.BlockID(bi, bj) * t.tile * t.tile
}

// Block returns the contiguous Tile()×Tile() row-major slice backing
// block (bi, bj). bi ≤ bj required.
func (t *Tiled[E]) Block(bi, bj int) []E {
	if bi < 0 || bj < bi || bj >= t.m {
		panic(fmt.Sprintf("tri: block (%d,%d) outside upper triangle of %d tiles", bi, bj, t.m))
	}
	off := t.BlockBytesOffset(bi, bj)
	return t.cells[off : off+t.tile*t.tile]
}

// At returns the value of cell (i, j).
func (t *Tiled[E]) At(i, j int) E {
	bi, bj := i/t.tile, j/t.tile
	b := t.Block(bi, bj)
	return b[(i%t.tile)*t.tile+(j%t.tile)]
}

// Set stores v into cell (i, j).
func (t *Tiled[E]) Set(i, j int, v E) {
	bi, bj := i/t.tile, j/t.tile
	b := t.Block(bi, bj)
	b[(i%t.tile)*t.tile+(j%t.tile)] = v
}

// Cells exposes the whole backing store.
func (t *Tiled[E]) Cells() []E { return t.cells }

// Clone returns a deep copy.
func (t *Tiled[E]) Clone() *Tiled[E] {
	c := *t
	c.cells = make([]E, len(t.cells))
	copy(c.cells, t.cells)
	return &c
}

// ResetPadding rewrites every padding cell (out-of-triangle positions in
// diagonal blocks and positions past n) to the min-plus identity. Engines
// call it after bulk-loading user data to restore the invariant padding
// depends on.
func (t *Tiled[E]) ResetPadding() {
	inf := semiring.Inf[E]()
	for bi := 0; bi < t.m; bi++ {
		for bj := bi; bj < t.m; bj++ {
			b := t.Block(bi, bj)
			for a := 0; a < t.tile; a++ {
				gi := bi*t.tile + a
				for c := 0; c < t.tile; c++ {
					gj := bj*t.tile + c
					if gi > gj || gi >= t.n || gj >= t.n {
						b[a*t.tile+c] = inf
					}
				}
			}
		}
	}
}
