// Package cellnpdp is a Go reproduction of "Efficient Nonserial Polyadic
// Dynamic Programming on the Cell Processor" (Liu, Wang, Jiang, Li, Yang —
// IPDPS 2011).
//
// It solves the NPDP recurrence
//
//	d[i][j] = min(d[i][j], d[i][k] + d[k][j])   for i ≤ k < j
//
// over the upper triangle of an n-point table, with four interchangeable
// engines:
//
//   - Serial: the original Figure 1 loop (the correctness reference).
//   - Tiled: the serial tiled algorithm on the paper's block-sequential
//     "new data layout", using the two-stage memory-block procedure on
//     the same kernels as Parallel, on one core.
//   - Parallel: the tier-2 task-queue procedure on real goroutines —
//     the fastest way to actually solve big instances on the host.
//   - Cell: the full CellNPDP algorithm executed on a simulated IBM QS20
//     Cell blade (SPE local stores, asynchronous DMA, dual-issue pipeline
//     cost model), returning both the answer and the modeled hardware
//     time and DMA traffic.
//
// Applications built on the engines are exposed too: RNA secondary-
// structure prediction (FoldRNA — the Zuker bifurcation layer the paper
// targets), optimal matrix-chain parenthesization and optimal binary
// search trees.
package cellnpdp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"cellnpdp/internal/cellsim"
	"cellnpdp/internal/npdp"
	"cellnpdp/internal/pager"
	"cellnpdp/internal/perfmodel"
	"cellnpdp/internal/pipeline"
	"cellnpdp/internal/resilience"
	"cellnpdp/internal/sched"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tri"
)

// Elem constrains table element types: float32 (the paper's single
// precision) or float64 (double).
type Elem = semiring.Elem

// Inf is the "no solution yet" initial value for unset cells.
func Inf[E Elem]() E { return semiring.Inf[E]() }

// Engine selects the solver backend.
type Engine int

// The available engines.
const (
	Serial Engine = iota
	Tiled
	Parallel
	Cell
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case Serial:
		return "serial"
	case Tiled:
		return "tiled"
	case Parallel:
		return "parallel"
	case Cell:
		return "cell"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// Options configures Solve.
type Options struct {
	// Engine selects the backend; the zero value is Serial.
	Engine Engine
	// Workers is the worker count for Parallel (goroutines) and Cell
	// (SPEs, ≤ 16) — the paper's SPE count on the Cell and its CPU core
	// count in Table III / Figure 10(b). Defaults to GOMAXPROCS, capped
	// at 16 for Cell. The Parallel engine dispatches tasks through a
	// lock-free ready queue and computes stage 1 with register-blocked
	// panel kernels (assembly on AVX-512, AVX2 and NEON hosts).
	Workers int
	// BlockBytes is the memory-block budget the tile side is derived
	// from; 0 means the paper's 32 KB. Negative values are rejected.
	BlockBytes int
	// SchedSide is the scheduling-block side in memory blocks; 0 means 1
	// (one task per memory block). Negative values are rejected.
	SchedSide int
	// SingleChip runs the Cell engine on a one-chip, 8-SPE machine
	// instead of the dual-Cell QS20 blade.
	SingleChip bool
	// MaxRetries bounds per-task retries of transient failures in the
	// Parallel engine (exponential backoff, 1ms base). 0 never retries.
	MaxRetries int
	// FaultRate, when positive, turns on the deterministic fault-injection
	// harness in the Parallel engine: each task attempt independently
	// fails (as a retryable transient error) with this probability.
	FaultRate float64
	// FaultSeed seeds the injection plan; runs with the same seed fault
	// the same (task, attempt) pairs regardless of worker interleaving.
	FaultSeed int64
	// FaultKinds selects the faults injected, comma-separated from
	// "error", "panic", "delay", "corrupt"; empty means "error" (the
	// retryable default). "corrupt" silently flips one bit in a completed
	// memory block — block sealing (implied by selecting it) turns that
	// into a detected corruption, and Heal into a recovered one. The Cell
	// engine honors only "corrupt".
	FaultKinds string
	// Heal enables self-healing in the Parallel and Cell engines: every
	// completed memory block is sealed with a CRC32C digest, audits
	// re-verify the seals, and a mismatch triggers poisoned-cone
	// recompute (the corrupted block's task plus its transitive
	// successors) instead of a failed solve. Without Heal a detected
	// corruption is an error — never a silently wrong answer.
	Heal bool
	// HealAttempts bounds poisoned-cone recompute rounds; 0 uses the
	// engine default.
	HealAttempts int
	// AuditEvery makes the Parallel engine re-verify all block seals
	// every AuditEvery task executions (the online audit, which catches
	// corruption mid-solve); 0 audits post-solve only. Implies sealing.
	AuditEvery int
	// CheckpointPath, when non-empty, makes the Tiled and Parallel engines
	// keep a checkpoint there: the solve runs on a durable spill file at
	// this path (every block resident when MemoryBudget is 0; its index
	// rides beside it at CheckpointPath+".idx"), which commits the
	// solve's final, verified blocks every CheckpointEvery completed
	// tasks and once more however the solve ends. A commit never records
	// a block whose seal fails, or anything computed from one. Tiled then
	// runs as the Parallel executor on one worker. Serial and Cell reject
	// it.
	CheckpointPath string
	// CheckpointEvery is the commit period in completed tasks; 0 means
	// 16. Negative values are rejected.
	CheckpointEvery int
	// Resume continues a solve from the checkpoint at CheckpointPath,
	// written by an earlier solve with the same n, tile and element
	// width: its committed blocks are trusted once their page-in
	// verifies, and only the remainder runs, from the input the
	// checkpoint holds; the table only receives the result. A missing
	// file or another geometry is an error, returned before anything is
	// written. Requires CheckpointPath.
	Resume bool
	// NoFallback disables the Parallel→Tiled graceful degradation, so a
	// parallel compute failure surfaces instead of being recovered. A
	// solve under MemoryBudget never degrades: the in-memory Tiled engine
	// would break the budget.
	NoFallback bool
	// MemoryBudget, when positive, runs the Tiled and Parallel engines
	// out of core: the NDL table lives in a spill file and, while the
	// solve runs, only a working set of roughly MemoryBudget bytes of
	// blocks stays resident (clamped up to the minimum the worker count
	// needs). No tiled copy of the table is built around the solve: the
	// spill file's pristine region is written block by block from the
	// table, and each solved block is copied straight back into it once
	// its page-in verifies. The table is written only by that copy-out,
	// so a solve that fails before it leaves the table as it was; one
	// that fails inside it, on a page fault that cannot be healed, may
	// leave some cells holding solved values, as a cancelled Serial
	// solve does. The budget is soft — disk failures degrade to
	// residency growth rather than data loss. The spill file is one
	// block store under the same executor, so FaultRate, MaxRetries,
	// AuditEvery, Heal, SchedSide and CheckpointPath all apply. Without
	// CheckpointPath the spill file is a private temp file, never synced
	// and removed after the solve. Serial and Cell reject it.
	MemoryBudget int64
	// DiskFaultRate, when positive, turns on the deterministic disk-fault
	// injector on the pager's spill I/O (the out-of-core counterpart of
	// FaultRate). Requires MemoryBudget or CheckpointPath.
	DiskFaultRate float64
	// DiskFaultSeed seeds the disk-fault plan.
	DiskFaultSeed int64
	// DiskFaultKinds selects injected disk faults, comma-separated from
	// "eio", "torn", "flip", "enospc"; empty means all four.
	DiskFaultKinds string
	// Logf, when non-nil, receives operational messages (degradation
	// reasons). Nil is silent; the reason is still recorded in the
	// Result.
	Logf func(format string, args ...any)
}

// Result reports a solve.
type Result struct {
	// Engine that ran.
	Engine Engine
	// Relaxations is the scalar-equivalent relaxation count performed.
	Relaxations int64
	// WallSeconds is the measured host wall-clock time of the solve.
	WallSeconds float64
	// ModeledSeconds is the simulated QS20 execution time (Cell engine
	// only, 0 otherwise).
	ModeledSeconds float64
	// DMABytes is the simulated local-store traffic (Cell engine only).
	DMABytes int64
	// Degraded reports that the Parallel engine failed and the solve was
	// recovered by the serial Tiled engine; DegradedReason is the
	// parallel failure that forced the switch.
	Degraded       bool
	DegradedReason string
	// ResumedTasks is the number of scheduler tasks restored from the
	// checkpoint instead of recomputed.
	ResumedTasks int
	// CorruptBlocks is the number of block-seal mismatches audits
	// detected (sealing engines only) plus the corrupt final pages a paged
	// solve healed.
	CorruptBlocks int
	// HealRounds is the number of poisoned-cone recompute rounds run.
	HealRounds int
	// RecomputedTasks is the total scheduler tasks re-dispatched by
	// healing across all rounds.
	RecomputedTasks int
	// HealFallback reports that heal rounds were exhausted and the solve
	// restarted once from the pristine snapshot.
	HealFallback bool
	// Paged reports the solve ran through the block pager (MemoryBudget
	// or CheckpointPath); PagerStats then carries the disk-traffic and
	// recovery counters (bytes spilled and fetched, faulted pages, heals,
	// ENOSPC degradations, commits).
	Paged      bool
	PagerStats *pager.Stats
}

// Table is an n-point upper-triangular DP table. Cells (i, j) with
// 0 ≤ i ≤ j < n are stored; unset cells start at Inf and the diagonal
// at 0 (the ⊗ identity, so d[i][i]+d[i][j] never wins spuriously).
type Table[E Elem] struct {
	rm *tri.RowMajor[E]
}

// NewTable allocates an n-point table.
func NewTable[E Elem](n int) (*Table[E], error) {
	if err := tri.CheckSize(n); err != nil {
		return nil, err
	}
	rm := tri.NewRowMajor[E](n)
	for i := 0; i < n; i++ {
		rm.Set(i, i, 0)
	}
	return &Table[E]{rm: rm}, nil
}

// Len returns the problem size n.
func (t *Table[E]) Len() int { return t.rm.Len() }

// At returns cell (i, j); i ≤ j required.
func (t *Table[E]) At(i, j int) (E, error) {
	if err := tri.CheckCell(t.rm.Len(), i, j); err != nil {
		var zero E
		return zero, err
	}
	return t.rm.At(i, j), nil
}

// Row returns cells (i, i)..(i, n-1) in order, for bulk reads: row i
// of the row-major triangle is one contiguous run, so a band of rows is
// a handful of slices. The slice aliases the table's storage, like
// bytes.Buffer.Bytes: a write through it is a write to the table, and a
// later Set or Solve on t changes what it holds. An out-of-range i
// returns the error At(i, i) does.
func (t *Table[E]) Row(i int) ([]E, error) {
	n := t.rm.Len()
	if err := tri.CheckCell(n, i, i); err != nil {
		return nil, err
	}
	row := t.rm.Row(i, i, n-1)
	return row[:len(row):len(row)], nil
}

// Set stores v into cell (i, j); i ≤ j required.
func (t *Table[E]) Set(i, j int, v E) error {
	if err := tri.CheckCell(t.rm.Len(), i, j); err != nil {
		return err
	}
	t.rm.Set(i, j, v)
	return nil
}

// Clone returns a deep copy.
func (t *Table[E]) Clone() *Table[E] { return &Table[E]{rm: t.rm.Clone()} }

// precisionOf maps the element type to the paper's precision enum by
// its width, so a named element type sizes like its underlying type.
func precisionOf[E Elem]() npdp.Precision {
	if semiring.Width[E]() == 8 {
		return npdp.Double
	}
	return npdp.Single
}

// geometry resolves the tile side and scheduling-block side of a solve
// from BlockBytes (0 means the paper's 32 KB) and SchedSide (0 means 1),
// rejecting negative values rather than silently defaulting them.
func geometry[E Elem](opts Options) (tile, schedSide int, err error) {
	if opts.BlockBytes < 0 {
		return 0, 0, fmt.Errorf("cellnpdp: BlockBytes must be non-negative, got %d", opts.BlockBytes)
	}
	if opts.SchedSide < 0 {
		return 0, 0, fmt.Errorf("cellnpdp: SchedSide must be non-negative, got %d", opts.SchedSide)
	}
	blockBytes := opts.BlockBytes
	if blockBytes == 0 {
		blockBytes = 32 * 1024
	}
	tile, err = npdp.DefaultTile(blockBytes, precisionOf[E]())
	return tile, max(opts.SchedSide, 1), err
}

// cbStepCycles returns the modeled computing-block step cost for E.
func cbStepCycles[E Elem]() float64 {
	if precisionOf[E]() == npdp.Double {
		return pipeline.CBStepCyclesDP()
	}
	return pipeline.CBStepCyclesSP()
}

// Solve runs the NPDP recurrence in place on t with the selected engine.
// All engines produce bit-identical tables.
func Solve[E Elem](t *Table[E], opts Options) (*Result, error) {
	return SolveCtx(context.Background(), t, opts)
}

// SolveCtx is Solve under a context: cancellation and deadlines are
// honored by every engine at task-dispatch granularity (per column for
// Serial, per memory block for Tiled, per scheduler task for Parallel
// and Cell). A cancelled solve returns ctx's error and may leave the
// table partially solved; with a CheckpointPath, the verified completed
// portion is on disk for Resume.
func SolveCtx[E Elem](ctx context.Context, t *Table[E], opts Options) (*Result, error) {
	if t == nil || t.rm == nil {
		return nil, fmt.Errorf("cellnpdp: nil table")
	}
	// Worker validation is uniform across all four engines: negative
	// counts are a configuration error everywhere, including Serial
	// (where the field is otherwise unused), so a typo never silently
	// selects a default.
	workers := opts.Workers
	if workers < 0 {
		return nil, fmt.Errorf("cellnpdp: Workers must be non-negative, got %d (engine %v)", workers, opts.Engine)
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opts.FaultRate < 0 || opts.FaultRate > 1 {
		return nil, fmt.Errorf("cellnpdp: FaultRate must be in [0, 1], got %g", opts.FaultRate)
	}
	if opts.HealAttempts < 0 {
		return nil, fmt.Errorf("cellnpdp: HealAttempts must be non-negative, got %d", opts.HealAttempts)
	}
	if opts.AuditEvery < 0 {
		return nil, fmt.Errorf("cellnpdp: AuditEvery must be non-negative, got %d", opts.AuditEvery)
	}
	if opts.CheckpointEvery < 0 {
		return nil, fmt.Errorf("cellnpdp: CheckpointEvery must be non-negative, got %d", opts.CheckpointEvery)
	}
	faultKinds, err := resilience.ParseFaultKinds(opts.FaultKinds)
	if err != nil {
		return nil, fmt.Errorf("cellnpdp: %w", err)
	}
	diskFaultKinds, err := pager.ParseDiskFaultKinds(opts.DiskFaultKinds)
	if err != nil {
		return nil, fmt.Errorf("cellnpdp: %w", err)
	}
	if opts.MemoryBudget < 0 {
		return nil, fmt.Errorf("cellnpdp: MemoryBudget must be non-negative, got %d", opts.MemoryBudget)
	}
	paged := opts.MemoryBudget > 0 || opts.CheckpointPath != ""
	if paged && opts.Engine != Tiled && opts.Engine != Parallel {
		return nil, fmt.Errorf("cellnpdp: MemoryBudget and CheckpointPath support the Tiled and Parallel engines, not %v", opts.Engine)
	}
	if opts.Resume && opts.CheckpointPath == "" {
		return nil, fmt.Errorf("cellnpdp: Resume requires CheckpointPath")
	}
	if opts.DiskFaultRate < 0 || opts.DiskFaultRate > 1 {
		return nil, fmt.Errorf("cellnpdp: DiskFaultRate must be in [0, 1], got %g", opts.DiskFaultRate)
	}
	if opts.DiskFaultRate > 0 && !paged {
		return nil, fmt.Errorf("cellnpdp: DiskFaultRate requires MemoryBudget or CheckpointPath (there is no spill I/O to fault)")
	}
	tile, schedSide, err := geometry[E](opts)
	if err != nil {
		return nil, err
	}
	res := &Result{Engine: opts.Engine}
	start := time.Now()
	switch opts.Engine {
	case Serial:
		relax, err := npdp.SolveSerialCtx(ctx, t.rm)
		if err != nil {
			return nil, err
		}
		res.Relaxations = relax
	case Tiled, Parallel:
		if opts.Engine == Tiled && !paged {
			tt := tri.ToTiled(t.rm, tile)
			st, err := npdp.SolveTiledCtx(ctx, tt)
			if err != nil {
				return nil, err
			}
			res.Relaxations = st.Relaxations()
			tri.Copy(t.rm, tt)
			break
		}
		if opts.Engine == Tiled {
			workers = 1 // Tiled on a pager is the executor on one worker
		}
		relax, err := solveStore(ctx, t, res, tile, workers, schedSide, paged, opts, faultKinds, diskFaultKinds)
		if err != nil {
			return nil, err
		}
		res.Relaxations = relax
	case Cell:
		cfg := cellsim.QS20()
		if opts.SingleChip {
			cfg = cellsim.SingleCell()
		}
		mach, err := cellsim.NewMachine(cfg)
		if err != nil {
			return nil, err
		}
		if workers > len(mach.SPEs) {
			workers = len(mach.SPEs)
		}
		tt := tri.ToTiled(t.rm, tile)
		hs := &resilience.HealStats{}
		copts := npdp.CellOptions{
			Workers:           workers,
			SchedSide:         schedSide,
			UseSIMD:           true,
			DoubleBuffer:      true,
			CBStepCycles:      cbStepCycles[E](),
			ScalarRelaxCycles: npdp.ScalarRelaxCyclesFor(precisionOf[E]()),
			Seal:              sealOn(opts, faultKinds),
			Heal:              opts.Heal,
			HealAttempts:      opts.HealAttempts,
			HealStats:         hs,
		}
		if opts.FaultRate > 0 {
			copts.Inject = &resilience.Injector{Rate: opts.FaultRate, Seed: opts.FaultSeed, Kinds: faultKinds}
		}
		cres, err := npdp.SolveCellCtx(ctx, tt, mach, copts)
		res.CorruptBlocks = hs.CorruptBlocks
		res.HealRounds = hs.HealRounds
		res.RecomputedTasks = hs.RecomputedTasks
		res.HealFallback = hs.CheckpointFallback
		if err != nil {
			return nil, err
		}
		res.Relaxations = cres.Stats.Relaxations()
		res.ModeledSeconds = cres.Seconds
		res.DMABytes = cres.DMA.TotalBytes()
		tri.Copy(t.rm, tt)
	default:
		return nil, fmt.Errorf("cellnpdp: unknown engine %v", opts.Engine)
	}
	res.WallSeconds = time.Since(start).Seconds()
	return res, nil
}

// solveStore runs the one executor path behind the Parallel engine and
// every solve on a pager: it builds the block store (an in-memory
// MemStore, or a pager under MemoryBudget or CheckpointPath) and runs
// npdp.SolveStoreCtx with the fault-tolerance options, which combine
// freely. An in-memory solve overwrites the row-major source only after
// it succeeds, and a pager solve writes it only in its final copy-out,
// so a failure can degrade to the serial Tiled engine from the source
// (unless NoFallback). A solve under MemoryBudget never degrades: the
// Tiled engine would hold the whole table and break the budget.
func solveStore[E Elem](ctx context.Context, t *Table[E], res *Result, tile, workers, schedSide int, paged bool, opts Options, faultKinds []resilience.FaultKind, diskFaultKinds []pager.DiskFaultKind) (int64, error) {
	hs := &resilience.HealStats{}
	defer func() { // the ladder's counters reach the Result on every path
		res.CorruptBlocks, res.HealRounds = hs.CorruptBlocks, hs.HealRounds
		res.RecomputedTasks, res.HealFallback = hs.RecomputedTasks, hs.CheckpointFallback
	}()
	popts := npdp.ParallelOptions{
		Workers:         workers,
		SchedSide:       schedSide,
		CheckpointEvery: opts.CheckpointEvery,
		Seal:            sealOn(opts, faultKinds),
		Heal:            opts.Heal,
		HealAttempts:    opts.HealAttempts,
		AuditEvery:      opts.AuditEvery,
		HealStats:       hs,
		Logf:            opts.Logf,
	}
	if opts.MaxRetries > 0 {
		popts.Retry = resilience.RetryPolicy{
			MaxRetries: opts.MaxRetries,
			BaseDelay:  time.Millisecond,
			MaxDelay:   100 * time.Millisecond,
			Jitter:     true,
		}
	}
	if opts.FaultRate > 0 {
		popts.Inject = &resilience.Injector{Rate: opts.FaultRate, Seed: opts.FaultSeed, Kinds: faultKinds}
	}
	var relax int64
	var err error
	if paged {
		relax, err = solvePaged(ctx, t, res, tile, workers, schedSide, popts, opts, diskFaultKinds)
	} else {
		tt := tri.ToTiled(t.rm, tile)
		st, serr := npdp.SolveStoreCtx(ctx, npdp.NewMemStore(tt, opts.Heal), popts)
		if err = serr; err == nil {
			tri.Copy(t.rm, tt)
			relax = st.Relaxations()
		}
	}
	if err == nil || !degradable(err) || opts.NoFallback || opts.MemoryBudget > 0 {
		return relax, err
	}
	if opts.Logf != nil {
		opts.Logf("cellnpdp: parallel engine failed (%v); degrading to tiled", err)
	}
	res.Degraded, res.DegradedReason = true, err.Error()
	tt := tri.ToTiled(t.rm, tile)
	st, err := npdp.SolveTiledCtx(ctx, tt)
	if err != nil {
		return 0, err
	}
	tri.Copy(t.rm, tt)
	return st.Relaxations(), nil
}

// solvePaged is solveStore's pager path: the pager is created from the
// row-major table, or reopened under Resume, and the solved blocks are
// copied back into it inside the recovery ladder
// (npdp.SolvePagedTableCtx), so no tiled copy of the table is built on
// either side of the solve.
func solvePaged[E Elem](ctx context.Context, t *Table[E], res *Result, tile, workers, schedSide int, popts npdp.ParallelOptions, opts Options, diskFaultKinds []pager.DiskFaultKind) (int64, error) {
	res.Paged = true
	p, cleanup, err := openPager(t, tile, workers, opts, diskFaultKinds)
	if err != nil {
		return 0, err
	}
	defer cleanup()
	if opts.Resume {
		graph, err := sched.NewGraph(p.Blocks(), schedSide)
		if err != nil {
			return 0, err
		}
		for _, done := range npdp.Completed[E](p, graph) {
			if done {
				res.ResumedTasks++
			}
		}
	}
	st, err := npdp.SolvePagedTableCtx(ctx, p, t.rm, popts)
	// Read after the copy-out — its page-ins are disk traffic the bound
	// comparison must see.
	stats := p.Stats()
	res.PagerStats = &stats
	if err != nil {
		return 0, err
	}
	return st.Relaxations(), nil
}

// openPager makes the block store of a pager solve
// (pager.OpenSolve): the NDL table lives in a CRC-sealed, versioned
// spill file, the checkpoint when there is a CheckpointPath and a
// private scratch file otherwise, and only a MemoryBudget-sized working
// set stays resident, or every block when MemoryBudget is 0. The spill
// file's pristine region is written block by block from the table.
func openPager[E Elem](t *Table[E], tile, workers int, opts Options, diskFaultKinds []pager.DiskFaultKind) (*pager.Pager[E], func(), error) {
	m := (t.Len() + tile - 1) / tile
	frames := m * (m + 1) / 2
	if opts.MemoryBudget > 0 {
		elem := int64(precisionOf[E]().ElemBytes())
		frameBytes := int64(tile)*int64(tile)*elem + 4
		frames = int(opts.MemoryBudget / frameBytes)
		// Each worker pins at most three blocks at once (destination plus
		// one operand pair), and the prefetch pipeline holds two more in
		// flight — below that floor the solve cannot make progress, so
		// the budget is soft there (the pager counts the overshoot in
		// OverBudget).
		if minFrames := workers*3 + 2; frames < minFrames {
			if opts.Logf != nil {
				opts.Logf("cellnpdp: memory budget %d B is below the %d-worker minimum working set (%d B); clamping to %d frames",
					opts.MemoryBudget, workers, int64(minFrames)*frameBytes, minFrames)
			}
			frames = minFrames
		}
	}
	popts := pager.Options{Frames: frames, Logf: opts.Logf}
	if opts.DiskFaultRate > 0 {
		popts.Faults = &pager.DiskFaults{Rate: opts.DiskFaultRate, Seed: opts.DiskFaultSeed, Kinds: diskFaultKinds}
	}
	p, done, err := pager.OpenSolve(opts.CheckpointPath, opts.Resume, t.Len(), tile, popts,
		func(path string, popts pager.Options) (*pager.Pager[E], error) {
			return pager.CreateFromRows(path, t.rm, tile, popts)
		})
	if err != nil {
		return nil, nil, fmt.Errorf("cellnpdp: %w", err)
	}
	return p, done, nil
}

// degradable reports whether a parallel failure is a compute-layer fault
// the Tiled engine can recover from (a task failure, panic, or detected
// block corruption — degradation restarts from the clean row-major
// source, so corrupted tiled state is discarded), as opposed to
// cancellation or a configuration/IO error that would fail there too.
func degradable(err error) bool {
	var te *resilience.TaskError
	var pe *resilience.PanicError
	var ce *resilience.CorruptionError
	return errors.As(err, &te) || errors.As(err, &pe) || errors.As(err, &ce)
}

// sealOn reports whether block sealing must be active for a solve:
// requested healing or online audits need seals to act on, and
// injecting silent corruption without seals would let a wrong answer
// escape undetected.
func sealOn(opts Options, kinds []resilience.FaultKind) bool {
	if opts.Heal || opts.AuditEvery > 0 {
		return true
	}
	if opts.FaultRate > 0 {
		for _, k := range kinds {
			if k == resilience.FaultCorrupt {
				return true
			}
		}
	}
	return false
}

// SolveEstimate is the admission-control view of a solve before it runs:
// how many bytes it will pin while in flight and how long the paper's
// Section V model predicts it will take. A server uses the byte figures
// to gate admission against a memory budget and the predicted time to
// shed requests whose deadline cannot be met (internal/serve does both).
type SolveEstimate struct {
	// N and Tile are the problem size and derived memory-block side.
	N, Tile int
	// Workers is the resolved worker count the prediction assumes.
	Workers int
	// TableBytes is the tiled (NDL) table's backing store: all upper-
	// triangle blocks of Tile² cells, diagonal padding included.
	TableBytes int64
	// StagingBytes is the row-major source table the solve reads from
	// and copies back into — resident alongside the tiled table.
	StagingBytes int64
	// SpillFileBytes is the (sparse) on-disk size of a pager solve's
	// spill data file — pristine and final versions of every block plus
	// the header — the disk-side cost of running under MemoryBudget, and
	// the size of the checkpoint at CheckpointPath.
	SpillFileBytes int64
	// FootprintBytes is the total the solve pins: table + staging. Under
	// MemoryBudget the tiled table's contribution is capped at the
	// budget: that is the resident working set while the solve runs,
	// and the spill file is written from and copied back into the
	// staging table one block at a time.
	FootprintBytes int64
	// PredictedSeconds is T_All = max(T_M, T_C) from the Section V
	// model, instantiated with the solve's geometry and worker count.
	// The constants are the paper's QS20 figures, so treat it as a
	// relative oracle (an n³-faithful cost ordering) and scale it by a
	// measured calibration factor for absolute wall-clock predictions.
	PredictedSeconds float64
	// MemoryBound reports T_M > T_C under the model.
	MemoryBound bool
}

// EstimateSolve predicts the memory footprint and model time of a solve
// with the given options, without running it. The same defaulting and
// the same rejection of negative values as SolveCtx apply (workers,
// block budget, scheduling side).
func EstimateSolve[E Elem](n int, opts Options) (SolveEstimate, error) {
	if err := tri.CheckSize(n); err != nil {
		return SolveEstimate{}, err
	}
	workers := opts.Workers
	if workers < 0 {
		return SolveEstimate{}, fmt.Errorf("cellnpdp: Workers must be non-negative, got %d", workers)
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	tile, _, err := geometry[E](opts)
	if err != nil {
		return SolveEstimate{}, err
	}
	elem := int64(precisionOf[E]().ElemBytes())
	m := int64((n + tile - 1) / tile)
	nblocks := m * (m + 1) / 2
	blockCells := int64(tile) * int64(tile)
	est := SolveEstimate{
		N:            n,
		Tile:         tile,
		Workers:      workers,
		TableBytes:   nblocks * blockCells * elem,
		StagingBytes: int64(n) * int64(n+1) / 2 * elem,
	}
	est.SpillFileBytes = pager.SpillFileSize(n, tile, int(elem))
	est.FootprintBytes = est.TableBytes + est.StagingBytes
	if opts.MemoryBudget > 0 && opts.MemoryBudget < est.TableBytes {
		est.FootprintBytes = opts.MemoryBudget + est.StagingBytes
	}
	// Section V model with the solve's geometry: LocalStore is the
	// six-buffer inverse of the tile side, so BlockSide() == tile and
	// T_M/T_C reflect this run's blocking, not the paper's default.
	params := perfmodel.Params{
		ProblemSize: float64(n),
		LocalStore:  6 * float64(elem) * float64(tile) * float64(tile),
		ElemBytes:   float64(elem),
		Bandwidth:   2 * 25.6e9,
		Clock:       3.2e9,
		Cores:       float64(workers),
		CBSide:      4,
		CBCycles:    cbStepCycles[E](),
	}
	if err := params.Validate(); err != nil {
		return SolveEstimate{}, err
	}
	est.PredictedSeconds = params.Time()
	est.MemoryBound = !params.ComputeBound()
	return est, nil
}
