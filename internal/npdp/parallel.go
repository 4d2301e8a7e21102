package npdp

import (
	"context"

	"cellnpdp/internal/kernel"
	"cellnpdp/internal/resilience"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tri"
)

// ParallelOptions configures the executor: SolveParallel, SolvePagedCtx
// and SolveStoreCtx.
type ParallelOptions struct {
	// Workers is the number of concurrent goroutine workers — the host-CPU
	// counterpart of the paper's SPE count (16 on the QS20) and core count
	// (8 in Table III / Figure 10(b)). Required > 0.
	Workers int
	// SchedSide is the scheduling-block side in memory blocks (the paper's
	// g); 0 means 1 (one task per memory block). Negative values are
	// rejected.
	SchedSide int
	// FullDeps uses the unsimplified dependence graph (every left/below
	// task) instead of the paper's two-edge simplification — the
	// Section IV-B ablation.
	FullDeps bool
	// Retry governs per-task retries of transient failures. Retrying a
	// memory-block task in place is safe because every relaxation is an
	// idempotent monotone min toward the same fixed point: the block's
	// dependences are final before the task starts, so recomputing over a
	// partially-updated block converges to bit-identical values. The zero
	// value never retries.
	Retry resilience.RetryPolicy
	// Inject, when non-nil, is the deterministic fault-injection harness:
	// each (task, attempt) pair is independently faulted per its plan.
	Inject *resilience.Injector
	// CheckpointEvery is the commit period, in completed tasks, of a
	// solve over a durable pager, which is its checkpoint
	// (Ladder.Commit); 0 means DefaultCheckpointEvery. Other stores
	// ignore it.
	CheckpointEvery int
	// Seal enables block sealing: every completed memory block is
	// digested into a lock-free CRC32C seal table and re-verified by a
	// post-solve audit (plus the online audit when AuditEvery > 0), so a
	// silent corruption is always detected, never returned as a wrong
	// answer. Implied by Heal or AuditEvery > 0.
	Seal bool
	// Heal enables poisoned-cone recovery on seal mismatch (the shared
	// Ladder): the corrupted block's task and its transitive successor
	// cone are demoted to pristine and re-dispatched, then one
	// pristine-restart fallback, then *resilience.CorruptionError.
	// Without Heal a detected seal mismatch errors immediately. An
	// in-memory solve keeps a pristine table copy only under Heal. A
	// corrupt final page of a paged solve always heals.
	Heal bool
	// HealAttempts bounds how many times in a row one block may fail
	// verification and be healed; 0 means DefaultHealAttempts.
	HealAttempts int
	// AuditEvery runs the online seal audit every AuditEvery task
	// executions (0 disables it; the post-solve audit always runs when
	// sealing is on).
	AuditEvery int
	// HealStats, when non-nil, receives the recovery ladder's counters.
	HealStats *resilience.HealStats
	// Logf, when non-nil, receives heal and recovery progress lines.
	Logf func(format string, args ...any)
}

// SolveParallel runs the tier-2 parallel procedure (Section IV-B) on real
// goroutine workers: the lock-free task-queue model over scheduling
// blocks with the simplified two-dependence graph, each worker computing
// the memory blocks of its tasks with the two-stage SPE procedure
// (stage 1 on the register-blocked panel kernel). This is the engine
// behind the paper's CPU-platform numbers (Tables III, Figures
// 9(b)–12(b)); on the Cell itself the cellsim-backed SolveCell adds the
// local-store and DMA modeling.
func SolveParallel[E semiring.Elem](t *tri.Tiled[E], opts ParallelOptions) (kernel.Stats, error) {
	return SolveParallelCtx(context.Background(), t, opts)
}

// SolveParallelCtx is SolveParallel with the fault-tolerance layer wired
// in: SolveStoreCtx over a MemStore of t, which keeps a pristine copy of
// the table only when Heal is set. Every task starts incomplete; a
// checkpointed or resumed solve runs SolveStoreCtx over a durable pager
// instead.
func SolveParallelCtx[E semiring.Elem](ctx context.Context, t *tri.Tiled[E], opts ParallelOptions) (kernel.Stats, error) {
	return SolveStoreCtx[E](ctx, NewMemStore(t, opts.Heal), opts)
}
