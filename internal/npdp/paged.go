package npdp

import (
	"context"

	"cellnpdp/internal/kernel"
	"cellnpdp/internal/pager"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tri"
)

// PagedOptions configures SolvePagedCtx; it is ParallelOptions.
type PagedOptions = ParallelOptions

// SolvePagedCtx runs the tier-2 parallel procedure out of core:
// SolveStoreCtx over the pager, so the table lives in the spill file and
// only the working set is resident. It is the host-side analogue of the
// paper's SPE discipline — Acquire/Release windows are the local-store
// residency of a block, Prefetch of the next stage-1 operand pair is the
// double-buffered DMA that overlaps transfer with compute, and Complete
// seals a block's CRC32C exactly when its producing task finishes
// (blocks are immutable afterwards, so each is spilled at most once).
//
// A durable pager is the solve's checkpoint: the executor commits its
// index every CheckpointEvery completed tasks and once at the end
// (Ladder.Commit). Blocks a reopened pager's committed index recovered
// are final, so a restart after SIGKILL recomputes only the remainder,
// bit-identically: a recovered block is the same sealed bytes its task
// produced.
//
// Robustness ladder: a spilled final block that pages in corrupt (torn
// write, bit flip, read fault) surfaces as *pager.ErrPageCorrupt; the
// shared Ladder demotes the block's transitive successor cone to
// pristine and recomputes it, whether or not Heal is set. A corrupt
// pristine block has no earlier version and fails the solve. ENOSPC
// degradation and the hard-ceiling *pager.ErrSpillSpace happen inside
// the pager and surface here unhealed (recomputing cannot create disk
// space).
//
// On success every block is final; the caller copies the solved table
// out with p.Materialize, or solves with SolvePagedTableCtx.
func SolvePagedCtx[E semiring.Elem](ctx context.Context, p *pager.Pager[E], opts PagedOptions) (kernel.Stats, error) {
	return SolveStoreCtx[E](ctx, p, opts)
}

// SolvePagedTableCtx is SolvePagedCtx followed by copying the solved
// table out of the pager into dst, a row-major table of the pager's
// problem size, inside the same recovery ladder: a final block that
// pages in corrupt only during the copy — a torn spill no consumer read
// back, such as the last block — is healed like any other detection,
// and the copy is retried. Each block goes straight from its frame or
// verified slot to dst's rows (pager.MaterializeRows), so no tiled
// table is built and nothing adds to the solve's working set. dst is
// written only by that copy: a solve that fails before it leaves dst as
// it was, and one that fails inside it, on a page fault that cannot be
// healed, may leave some cells holding solved values.
func SolvePagedTableCtx[E semiring.Elem](ctx context.Context, p *pager.Pager[E], dst *tri.RowMajor[E], opts PagedOptions) (kernel.Stats, error) {
	return solveStore[E](ctx, p, opts, func() error { return p.MaterializeRows(dst) })
}
