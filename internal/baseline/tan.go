// Package baseline implements a TanNPDP-style comparator: the
// state-of-the-art fully optimized CPU algorithm of Tan et al. [24–26]
// that Section VI-C compares against. Its published ingredients are
// tiling for cache reuse, helper-thread prefetching, and block-level
// parallelization — but no SIMD and no register blocking, which is why
// the paper measures its processor utilization below 4%.
//
// The authors' source is not available, so this reconstruction follows
// the published description: blocks of the row-major triangular layout
// are computed in the tiled wavefront order by a pool of workers, each
// block with the plain Figure 1 scalar recurrence (the k loop split
// across finished blocks and the block's own cells). Helper-thread
// prefetching is not reproduced: on the host CPU the hardware prefetcher
// already covers the streaming reads it was introduced for, and Go offers
// no software-prefetch primitive; DESIGN.md records the substitution.
package baseline

import (
	"fmt"

	"cellnpdp/internal/sched"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tri"
)

// Options configures a TanNPDP run.
type Options struct {
	Workers int // concurrent workers; required > 0
	Tile    int // block side in cells; required > 0
}

// Solve runs the TanNPDP-style algorithm in place on the row-major
// triangular table and returns the number of scalar relaxations.
// Results are bit-identical to npdp.SolveSerial.
func Solve[E semiring.Elem](m *tri.RowMajor[E], opts Options) (int64, error) {
	if opts.Workers <= 0 {
		return 0, fmt.Errorf("baseline: Workers must be positive, got %d", opts.Workers)
	}
	if opts.Tile <= 0 {
		return 0, fmt.Errorf("baseline: Tile must be positive, got %d", opts.Tile)
	}
	n := m.Len()
	blocks := (n + opts.Tile - 1) / opts.Tile
	graph, err := sched.NewGraph(blocks, 1)
	if err != nil {
		return 0, err
	}
	perWorker := make([]int64, opts.Workers)
	err = sched.RunPool(graph, opts.Workers, func(worker int, task sched.Task) error {
		perWorker[worker] += solveBlock(m, task.RowLo*opts.Tile, task.ColLo*opts.Tile, opts.Tile)
		return nil
	})
	var relax int64
	for _, r := range perWorker {
		relax += r
	}
	return relax, err
}

// solveBlock computes the cells of the tile-side block whose top-left
// corner is (rowLo, colLo), in the dependence-respecting order (columns
// ascending, rows descending), each cell with the full Figure 1 k loop.
// Every value read is either in an already-finished block or an
// already-finished cell of this block.
func solveBlock[E semiring.Elem](m *tri.RowMajor[E], rowLo, colLo, tile int) int64 {
	n := m.Len()
	rowHi := rowLo + tile
	if rowHi > n {
		rowHi = n
	}
	colHi := colLo + tile
	if colHi > n {
		colHi = n
	}
	var relax int64
	for j := colLo; j < colHi; j++ {
		iTop := j - 1
		if iTop >= rowHi {
			iTop = rowHi - 1
		}
		for i := iTop; i >= rowLo; i-- {
			v := m.At(i, j)
			for k := i; k < j; k++ {
				if w := m.At(i, k) + m.At(k, j); w < v {
					v = w
				}
			}
			m.Set(i, j, v)
			relax += int64(j - i)
		}
	}
	return relax
}
