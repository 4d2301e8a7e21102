package npdp

import (
	"context"
	"fmt"
	"sync/atomic"
	"unsafe"

	"cellnpdp/internal/kernel"
	"cellnpdp/internal/pager"
	"cellnpdp/internal/resilience"
	"cellnpdp/internal/sched"
	"cellnpdp/internal/semiring"
)

// paddedStats is one worker's kernel.Stats padded out to two cache lines
// so neighboring workers' accumulators never share a line (128 bytes also
// clears the adjacent-line prefetcher's pairing).
type paddedStats struct {
	kernel.Stats
	_ [128 - unsafe.Sizeof(kernel.Stats{})]byte
}

// SolveStoreCtx is the one executor: the tier-2 parallel procedure
// (Section IV-B) over any BlockStore. A lock-free pool of opts.Workers
// goroutines runs the simplified two-dependence task graph; each task
// pins its own memory blocks, computes them with the block procedure,
// and completes them before the pins drop. A task is pre-complete iff
// all its blocks are already final in the store (a pager reopened from
// its committed spill index), so only the remainder runs.
//
// The fault-tolerance layer is the same for every store: cancellation at
// task-dispatch granularity, per-task retry of transient failures,
// deterministic fault injection, and the shared recovery Ladder.
// Sealing is off by default, so the plain path digests nothing. A
// durable pager is the solve's checkpoint: every CheckpointEvery
// completed tasks its committer runs Ladder.Commit beside the pool, and
// one last commit runs however the solve ends; any other store
// registers no per-task hook. Task failures surface as
// *resilience.TaskError carrying the task identity and attempt count.
func SolveStoreCtx[E semiring.Elem](ctx context.Context, s BlockStore[E], opts ParallelOptions) (kernel.Stats, error) {
	return solveStore(ctx, s, opts, nil)
}

// solveStore is SolveStoreCtx; finalize, when non-nil, is the ladder
// Step's: it runs after each clean run, and a corrupt final page it
// reports is one more detection.
func solveStore[E semiring.Elem](ctx context.Context, s BlockStore[E], opts ParallelOptions, finalize func() error) (kernel.Stats, error) {
	if err := kernel.CheckTile(s.Tile()); err != nil {
		return kernel.Stats{}, err
	}
	if opts.Workers <= 0 {
		return kernel.Stats{}, fmt.Errorf("npdp: Workers must be positive, got %d", opts.Workers)
	}
	if opts.SchedSide < 0 {
		return kernel.Stats{}, fmt.Errorf("npdp: SchedSide must be non-negative, got %d", opts.SchedSide)
	}
	g := max(opts.SchedSide, 1)
	newGraph := sched.NewGraph
	if opts.FullDeps {
		newGraph = sched.NewFullGraph
	}
	graph, err := newGraph(s.Blocks(), g)
	if err != nil {
		return kernel.Stats{}, err
	}
	x := newExecutor(s, graph, opts, opts.Seal || opts.Heal || opts.AuditEvery > 0)
	x.finalize = finalize
	if p, ok := s.(*pager.Pager[E]); ok && p.Durable() {
		x.checkpoint = p
		x.commit = x.ladder.Commit
	}
	if x.ladder.seal {
		if err := x.ladder.SealFinals(); err != nil {
			return kernel.Stats{}, err
		}
	}
	err = x.solve(ctx, false)
	if x.checkpoint != nil {
		if cerr := x.commit(); cerr != nil && err == nil {
			err = fmt.Errorf("npdp: solve succeeded but its checkpoint commit failed: %w", cerr)
		}
	}
	return x.total(), err
}

// executor runs one solve's tasks over a store.
type executor[E semiring.Elem] struct {
	store BlockStore[E]
	graph *sched.Graph
	mul   Stage1Func[E]
	opts  ParallelOptions
	// ladder's seal turns on block sealing: digests at completion plus
	// the post-run (and, with AuditEvery, online) audit. Off on the
	// plain path, which then digests nothing.
	ladder   *Ladder[E]
	finalize func() error // see solveStore; may be nil
	// checkpoint is the store when it is a durable pager: taskDone asks
	// its committer to run commit (Ladder.Commit) every
	// CheckpointEvery completed tasks.
	checkpoint *pager.Pager[E]
	commit     func() error
	completed  atomic.Int64
	perWorker  []paddedStats
	// hostFaults applies the injector's error/panic/delay plans at the top
	// of each attempt. The Cell engine turns it off: its DES dispatcher
	// has no analogue for them, so its recovery runs honor only corrupt.
	hostFaults bool
	// attemptBase offsets injector attempt numbers per run so a
	// recomputed task re-rolls fresh fault plans instead of replaying the
	// run that corrupted it. Written only between runs; each run's worker
	// goroutines are created after the write.
	attemptBase int
	execs       atomic.Int64
}

func newExecutor[E semiring.Elem](s BlockStore[E], graph *sched.Graph, opts ParallelOptions, seal bool) *executor[E] {
	return &executor[E]{
		store:      s,
		graph:      graph,
		mul:        Stage1[E](),
		opts:       opts,
		ladder:     NewLadder(s, graph, seal, opts),
		perWorker:  make([]paddedStats, max(opts.Workers, 1)),
		hostFaults: true,
	}
}

// total sums the per-worker kernel work.
func (x *executor[E]) total() kernel.Stats {
	var st kernel.Stats
	for i := range x.perWorker {
		st.Add(x.perWorker[i].Stats)
	}
	return st
}

// runTask is the one task procedure: pin the task's own blocks and
// compute each in MemoryBlockOrder, then finish them before the pins
// drop, so eviction can never see a half-computed block.
func (x *executor[E]) runTask(task sched.Task, attempt int) (kernel.Stats, error) {
	var st kernel.Stats
	mbs := task.MemoryBlockOrder()
	own := make([][]E, 0, len(mbs))
	defer func() {
		for i := range own {
			x.store.Release(mbs[i][0], mbs[i][1])
		}
	}()
	ts := x.store.Tile()
	for _, mb := range mbs {
		d, err := x.store.Acquire(mb[0], mb[1])
		if err != nil {
			return st, err
		}
		own = append(own, d)
		bs, err := computeBlock[E](x.store, d, mb[0], mb[1], ts, x.mul)
		st.Add(bs)
		if err != nil {
			return st, err
		}
	}
	return st, x.finish(task.ID, mbs, own, attempt)
}

// sealedStore is a BlockStore that keeps its own seal of every final
// block (the pager: its spills, page-ins and committed index check it).
// CompleteSealed is Complete with that seal handed in.
type sealedStore interface {
	CompleteSealed(bi, bj int, crc uint32) error
}

// finish completes a computed task whose own blocks are pinned. With
// sealing on, the blocks are digested and the planned FaultCorrupt flip
// lands (resilience.DigestThenFlip) before Complete publishes them; a
// sealed store is handed the digests of the bytes the task computed,
// never of flipped ones, and the ladder's seals are stored last.
func (x *executor[E]) finish(taskID int, mbs [][2]int, own [][]E, attempt int) error {
	var crcs []uint32
	var ss sealedStore
	if x.ladder.seal {
		crcs = resilience.DigestThenFlip(own, x.opts.Inject, taskID, attempt)
		ss, _ = x.store.(sealedStore)
	}
	for i, mb := range mbs {
		var err error
		if ss != nil {
			err = ss.CompleteSealed(mb[0], mb[1], crcs[i])
		} else {
			err = x.store.Complete(mb[0], mb[1])
		}
		if err != nil {
			return err
		}
		if crcs != nil {
			x.ladder.Seal(mb[0], mb[1], crcs[i])
		}
	}
	return nil
}

// exec is the pool's task body: the online audit, then retried attempts
// of the task procedure behind the fault injector.
func (x *executor[E]) exec(worker int, task sched.Task) error {
	if x.ladder.seal && x.opts.AuditEvery > 0 && x.execs.Add(1)%int64(x.opts.AuditEvery) == 0 {
		bad, err := x.ladder.Audit()
		if err != nil {
			return err
		}
		if len(bad) > 0 {
			return &resilience.CorruptionError{Blocks: bad, TaskIDs: x.ladder.tasksOf(bad)}
		}
	}
	// Stats accumulate locally and merge only on success, so a retried
	// attempt never double-counts work.
	var local kernel.Stats
	attempts, err := x.opts.Retry.Do(func(attempt int) error {
		a := x.attemptBase + attempt
		if x.hostFaults {
			if err := x.opts.Inject.Apply(task.ID, a); err != nil {
				return err
			}
		}
		var err error
		local, err = x.runTask(task, a)
		return err
	})
	if err != nil {
		return &resilience.TaskError{
			TaskID: task.ID, Bi: task.Bi, Bj: task.Bj,
			Worker: worker, Attempts: attempts, Err: err,
		}
	}
	x.perWorker[worker].Stats.Add(local)
	return nil
}

// run executes every task not yet complete in the store once.
func (x *executor[E]) run(ctx context.Context, runIdx int) error {
	x.attemptBase = runIdx * (x.opts.Retry.MaxRetries + 1)
	po := sched.PoolRunOptions{Completed: Completed(x.store, x.graph)}
	if x.checkpoint != nil {
		po.OnTaskDone = x.taskDone
	}
	return sched.RunPoolCtx(ctx, x.graph, x.opts.Workers, po, x.exec)
}

// taskDone is the pool's completion hook on a checkpointed solve: every
// CheckpointEvery completed tasks (0 means DefaultCheckpointEvery) it
// requests a commit, which the pager's committer runs without holding
// up the pool.
func (x *executor[E]) taskDone(sched.Task) {
	every := int64(x.opts.CheckpointEvery)
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	if x.completed.Add(1)%every == 0 {
		x.checkpoint.RequestCommit(x.commit)
	}
}

// solve is the recovery ladder around run: after each run the ladder's
// Step audits, finalizes, and heals the poisoned cone or restarts once
// until the solve is done or fails typed. ran says the caller already
// executed the first run (the Cell engine's DES).
func (x *executor[E]) solve(ctx context.Context, ran bool) error {
	for runIdx := 0; ; runIdx++ {
		var err error
		if runIdx > 0 || !ran {
			err = x.run(ctx, runIdx)
		}
		if ids, err := x.ladder.Step(err, nil, x.finalize); ids == nil {
			return err
		}
	}
}
