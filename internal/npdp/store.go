package npdp

import (
	"sync/atomic"

	"cellnpdp/internal/kernel"
	"cellnpdp/internal/sched"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tri"
)

// BlockStore is the memory-block life cycle the one executor runs
// against: the host's version of the paper's local-store/main-memory
// split (Section IV-A). A task pins (Acquire) each block it reads or
// computes for exactly its use window, hints the next operand pair
// (Prefetch) while the current product runs, and marks each block it
// produced final (Complete) before its pin drops. Final blocks are
// immutable for the rest of the solve. Demote reverts a block to its
// pristine input version, which is the heal primitive.
//
// Two stores implement it: MemStore over an in-memory *tri.Tiled, and
// *pager.Pager, which pages blocks between a bounded frame set and a
// CRC-sealed spill file.
type BlockStore[E semiring.Elem] interface {
	// Len is the problem size n, Tile the block side in cells, Blocks the
	// memory blocks per side.
	Len() int
	Tile() int
	Blocks() int
	// Acquire pins block (bi, bj) and returns its cells; every Acquire is
	// matched by one Release, and the cells are valid only until then.
	Acquire(bi, bj int) ([]E, error)
	Release(bi, bj int)
	// Prefetch hints that block (bi, bj) is about to be acquired.
	Prefetch(bi, bj int)
	// Complete marks a pinned block final; IsFinal reports it.
	Complete(bi, bj int) error
	IsFinal(bi, bj int) bool
	// Demote reverts block (bi, bj) to pristine and clears its final mark.
	Demote(bi, bj int)
}

// MemStore is the in-memory BlockStore over a tiled table. Pins and
// prefetches are free; final marks are one atomic flag per block, so a
// Complete publishes the block's bytes to any reader that later sees it
// final. A pristine copy of the table is kept only when the solve can
// heal: Demote copies that block back. Without one, Demote only clears
// the final mark, which is enough to recompute a block that was never
// corrupted (relaxations are idempotent monotone mins).
type MemStore[E semiring.Elem] struct {
	*tri.Tiled[E]
	pristine *tri.Tiled[E]
	final    []atomic.Bool
}

// NewMemStore wraps t with no block final. keepPristine snapshots t for
// Demote; it costs one extra table copy.
func NewMemStore[E semiring.Elem](t *tri.Tiled[E], keepPristine bool) *MemStore[E] {
	m := t.Blocks()
	s := &MemStore[E]{Tiled: t, final: make([]atomic.Bool, m*(m+1)/2)}
	if keepPristine {
		s.pristine = t.Clone()
	}
	return s
}

// Acquire returns block (bi, bj) in place; it never fails.
func (s *MemStore[E]) Acquire(bi, bj int) ([]E, error) { return s.Block(bi, bj), nil }

// Release and Prefetch are no-ops: every block is always resident.
func (s *MemStore[E]) Release(bi, bj int)  {}
func (s *MemStore[E]) Prefetch(bi, bj int) {}

// Complete marks block (bi, bj) final.
func (s *MemStore[E]) Complete(bi, bj int) error {
	s.final[s.BlockID(bi, bj)].Store(true)
	return nil
}

// IsFinal reports whether block (bi, bj) is final.
func (s *MemStore[E]) IsFinal(bi, bj int) bool { return s.final[s.BlockID(bi, bj)].Load() }

// Demote clears block (bi, bj)'s final mark and, when a pristine copy
// is kept, restores its input values.
func (s *MemStore[E]) Demote(bi, bj int) {
	s.final[s.BlockID(bi, bj)].Store(false)
	if s.pristine != nil {
		copy(s.Block(bi, bj), s.pristine.Block(bi, bj))
	}
}

// operands is the part of a BlockStore the block procedure reads
// dependence blocks through.
type operands[E semiring.Elem] interface {
	Acquire(bi, bj int) ([]E, error)
	Release(bi, bj int)
	Prefetch(bi, bj int)
}

// tableOperands reads a bare tiled table's blocks in place. It is
// ComputeTask's view: a pointer conversion of the caller's table, so
// running the block procedure on it allocates nothing.
type tableOperands[E semiring.Elem] tri.Tiled[E]

func (t *tableOperands[E]) Acquire(bi, bj int) ([]E, error) {
	return (*tri.Tiled[E])(t).Block(bi, bj), nil
}
func (t *tableOperands[E]) Release(bi, bj int)  {}
func (t *tableOperands[E]) Prefetch(bi, bj int) {}

// computeBlock is the one block procedure: the two-stage SPE procedure
// (Figure 8 steps 8–12) for memory block (bi, bj) into its pinned cells
// d. Each stage-1 operand pair is pinned for exactly its product, and
// the next pair is prefetched while the current one runs: the cellsim
// double buffer, with the store's frames standing in for the second
// local-store buffer. The task graph guarantees every dependence block
// is final before this runs, so concurrent tasks only ever read them.
func computeBlock[E semiring.Elem](src operands[E], d []E, bi, bj, ts int, mul Stage1Func[E]) (kernel.Stats, error) {
	if bi == bj {
		return kernel.Stage2Diag(d, ts), nil
	}
	var st kernel.Stats
	for k := bi + 1; k < bj; k++ {
		if k+1 < bj {
			src.Prefetch(bi, k+1)
			src.Prefetch(k+1, bj)
		} else {
			src.Prefetch(bi, bi)
			src.Prefetch(bj, bj)
		}
		a, err := src.Acquire(bi, k)
		if err != nil {
			return st, err
		}
		b, err := src.Acquire(k, bj)
		if err != nil {
			src.Release(bi, k)
			return st, err
		}
		st.Add(mul(d, a, b, ts))
		src.Release(bi, k)
		src.Release(k, bj)
	}
	aa, err := src.Acquire(bi, bi)
	if err != nil {
		return st, err
	}
	bb, err := src.Acquire(bj, bj)
	if err != nil {
		src.Release(bi, bi)
		return st, err
	}
	st.Add(kernel.Stage2OffDiag(d, aa, bb, ts))
	src.Release(bi, bi)
	src.Release(bj, bj)
	return st, nil
}

// computeTableBlock runs the block procedure in place on a bare table.
func computeTableBlock[E semiring.Elem](t *tri.Tiled[E], bi, bj int, mul Stage1Func[E]) kernel.Stats {
	st, _ := computeBlock[E]((*tableOperands[E])(t), t.Block(bi, bj), bi, bj, t.Tile(), mul)
	return st
}

// ComputeTask runs the block procedure over every memory block of one
// scheduling task, in the dependence-safe MemoryBlockOrder (columns
// ascending, rows descending — Section IV-A's intra-task order). It is
// the unit of work a cluster worker executes for one dispatch: given a
// table holding the task's operand blocks (its row, column and diagonal
// neighbours) at their final values, the produced blocks are
// bit-identical to the same task computed by the single-process
// engines, because it is the same block procedure they run.
func ComputeTask[E semiring.Elem](t *tri.Tiled[E], task sched.Task, mul Stage1Func[E]) kernel.Stats {
	var st kernel.Stats
	for _, mb := range task.MemoryBlockOrder() {
		st.Add(computeTableBlock(t, mb[0], mb[1], mul))
	}
	return st
}

// Completed returns the pre-complete bitmap of g over s — the one
// definition of a pre-complete task: task id is done iff all its memory
// blocks are final. It seeds the pool of every run, the executor's and
// each of the cluster coordinator's waves, and is the coordinator's only
// record of which tasks are done.
func Completed[E semiring.Elem](s BlockStore[E], g *sched.Graph) []bool {
	done := make([]bool, len(g.Tasks))
	for id, task := range g.Tasks {
		done[id] = true
		for i := task.RowLo; i < task.RowHi && done[id]; i++ {
			for j := max(task.ColLo, i); j < task.ColHi && done[id]; j++ {
				done[id] = s.IsFinal(i, j)
			}
		}
	}
	return done
}

// blockID is the dense upper-triangle block index shared by tri.Tiled,
// the pager and the seal table.
func blockID(m, bi, bj int) int { return bi*m - bi*(bi-1)/2 + (bj - bi) }
