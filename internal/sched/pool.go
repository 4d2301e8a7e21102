package sched

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"cellnpdp/internal/resilience"
)

// PoolRunOptions carries the fault-tolerance extensions of RunPoolCtx.
// The zero value reproduces plain RunPool behavior.
type PoolRunOptions struct {
	// Completed marks tasks (by ID) that finished in an earlier run and
	// must not re-execute: they are pre-notified — their successors'
	// dependence counters start already decremented — so a resumed solve
	// runs only the remaining tasks. May be nil.
	Completed []bool
	// OnTaskDone, when non-nil, is called after each successful task
	// execution, before its successors are notified. It runs on worker
	// goroutines, possibly concurrently, so it must be safe for that and
	// quick: the executor's only asks for a checkpoint commit, which the
	// pager's committer runs. A panic inside it fails the run like a task
	// panic.
	OnTaskDone func(t Task)
}

// RunPool executes the graph on `workers` concurrent goroutines,
// mirroring Figure 8: a ready queue of tasks (the PPE procedure's queue);
// workers (the SPE procedures) fetch ready tasks, execute them, and
// report completion, which notifies successors; a task enters the ready
// queue once every predecessor has notified it. See RunPoolCtx for the
// cancellable, fault-isolated variant this wraps.
func RunPool(g *Graph, workers int, exec func(worker int, t Task) error) error {
	return RunPoolCtx(context.Background(), g, workers, PoolRunOptions{}, exec)
}

// RunPoolCtx is the fault-tolerant pool executor.
//
// The completion path is lock-free: each task carries an atomic
// dependence counter, the last predecessor to decrement it enqueues the
// task, and a shared atomic countdown closes the queue after the final
// completion. No mutex is taken anywhere on the hot path, so completion
// throughput scales with workers instead of serializing behind one lock.
//
// Dispatch is critical-path-first: root tasks (the diagonal scheduling
// blocks) enqueue ahead of everything else, and the graph constructors
// pre-sort each successor list so that when a completion frees several
// tasks at once the ones nearest the diagonal — the heads of the longest
// remaining dependence chains — enqueue first.
//
// exec runs the task body; it receives the worker index (0-based) and the
// task. Failure semantics:
//
//   - A panic inside exec (or OnTaskDone) is converted to a
//     *resilience.PanicError carrying the task identity and worker; it
//     never crosses the worker goroutine as a panic, so one broken task
//     cannot kill the process or deadlock the pool.
//   - Any task failure cancels the run: the failed task notifies no
//     successors (nothing downstream of it ever executes), idle workers
//     wake via poison sentinels and exit, and busy workers stop dequeuing
//     after their current task.
//   - When several tasks fail concurrently, the reported error is
//     deterministic: the failure with the smallest task ID wins, not
//     whichever worker reached the error slot first.
//   - Context cancellation (checked at task-dispatch granularity, plus a
//     watcher that wakes blocked workers through the same poison path)
//     drains the pool promptly and returns ctx.Err() — unless a task had
//     already failed, in which case that task's error is reported.
//
// RunPoolCtx returns nil only when every non-pre-completed task executed
// successfully.
func RunPoolCtx(ctx context.Context, g *Graph, workers int, opts PoolRunOptions, exec func(worker int, t Task) error) error {
	if workers <= 0 {
		return fmt.Errorf("sched: worker count must be positive, got %d", workers)
	}
	if err := checkReachable(g); err != nil {
		return err
	}
	n := len(g.Tasks)
	if opts.Completed != nil && len(opts.Completed) != n {
		return fmt.Errorf("sched: completion bitmap has %d entries for %d tasks", len(opts.Completed), n)
	}
	done := func(id int) bool { return opts.Completed != nil && opts.Completed[id] }

	// Real tasks enqueue exactly once and cancellation adds at most one
	// sentinel per worker, so sends never block.
	ready := make(chan int, n+workers)

	pending := make([]atomic.Int32, n) // remaining notifications per task
	var remaining atomic.Int64

	for i := range g.Tasks {
		pending[i].Store(int32(len(g.Tasks[i].Deps)))
		if !done(i) {
			remaining.Add(1)
		}
	}
	// Pre-notify from completed tasks: their successors start with those
	// dependences already satisfied, exactly as if the task had just
	// finished (a resumed run therefore only executes the remainder).
	for i := range g.Tasks {
		if done(i) {
			for _, s := range g.Tasks[i].Succs {
				pending[s].Add(-1)
			}
		}
	}
	if remaining.Load() == 0 {
		return nil // everything was already complete
	}

	var roots []int
	for i := range g.Tasks {
		if pending[i].Load() == 0 && !done(i) {
			roots = append(roots, i)
		}
	}
	// Diagonal scheduling blocks ahead of any off-diagonal roots (the
	// standard graphs only root at the diagonal, where this is a no-op).
	sort.Slice(roots, func(x, y int) bool {
		dx := g.Tasks[roots[x]].Bj - g.Tasks[roots[x]].Bi
		dy := g.Tasks[roots[y]].Bj - g.Tasks[roots[y]].Bi
		if dx != dy {
			return dx < dy
		}
		return roots[x] < roots[y]
	})
	for _, id := range roots {
		ready <- id
	}

	// Both termination paths — full completion and cancellation — wake
	// the workers through the same once-guarded poison drain (one
	// sentinel per worker), so a context firing after the last task
	// completes can never send on torn-down state.
	var cancelled atomic.Bool
	var poisonOnce sync.Once
	drain := func() {
		poisonOnce.Do(func() {
			for i := 0; i < workers; i++ {
				ready <- poison // wake idle workers; busy ones see `cancelled`
			}
		})
	}
	cancelRun := func() {
		cancelled.Store(true)
		drain()
	}

	// Error slots: task failures are kept by smallest task ID so the
	// reported error does not depend on which worker loses the race;
	// a context error is reported only when no task failed.
	var errMu sync.Mutex
	var taskErr error
	taskErrID := -1
	var ctxErr error
	failTask := func(id int, err error) {
		errMu.Lock()
		if taskErr == nil || id < taskErrID {
			taskErr, taskErrID = err, id
		}
		errMu.Unlock()
		cancelRun()
	}
	failCtx := func(err error) {
		errMu.Lock()
		if ctxErr == nil {
			ctxErr = err
		}
		errMu.Unlock()
		cancelRun()
	}

	// The watcher wakes workers blocked on an empty ready queue when the
	// context fires; stop tears it down once the pool drains.
	stop := make(chan struct{})
	defer close(stop)
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				failCtx(ctx.Err())
			case <-stop:
			}
		}()
	}

	finish := func(id int) {
		// Succs is pre-sorted critical-path-first by the constructors.
		for _, s := range g.Tasks[id].Succs {
			if pending[s].Add(-1) == 0 && !done(s) {
				ready <- s
			}
		}
		if remaining.Add(-1) == 0 {
			// Every task completed: wake the workers so they exit.
			drain()
		}
	}

	// runTask executes one task body (and the completion hook) with panic
	// isolation, attaching task identity to converted panics.
	runTask := func(worker, id int) error {
		err := resilience.Recover(func() error { return exec(worker, g.Tasks[id]) })
		if err == nil && opts.OnTaskDone != nil {
			err = resilience.Recover(func() error { opts.OnTaskDone(g.Tasks[id]); return nil })
		}
		if pe, ok := err.(*resilience.PanicError); ok {
			pe.TaskID, pe.Bi, pe.Bj, pe.Worker = id, g.Tasks[id].Bi, g.Tasks[id].Bj, worker
		}
		return err
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			//npdp:dispatch
			for id := range ready {
				if id == poison || cancelled.Load() {
					return
				}
				// Dispatch-granularity context check: an expired deadline
				// stops the very next task even before the watcher fires.
				if err := ctx.Err(); err != nil {
					failCtx(err)
					return
				}
				if err := runTask(worker, id); err != nil {
					failTask(id, err)
					return
				}
				finish(id)
			}
		}(w)
	}
	wg.Wait()

	// The context watcher may still be recording a deadline that fired
	// as the last worker exited, so the slots are read under their lock.
	errMu.Lock()
	defer errMu.Unlock()
	if taskErr != nil {
		return taskErr
	}
	return ctxErr
}

// poison is the sentinel fail injects into the ready queue, one per
// worker, so goroutines blocked on an empty queue wake and exit.
const poison = -1

// checkReachable verifies every task can become ready (no dependence
// cycles) with one linear Kahn pass. The concurrent executor relies on
// this: it closes the ready queue only after all n completions, so an
// unreachable task would otherwise hang the pool instead of erroring.
func checkReachable(g *Graph) error {
	n := len(g.Tasks)
	deg := make([]int32, n)
	queue := make([]int, 0, n)
	for i := range g.Tasks {
		deg[i] = int32(len(g.Tasks[i].Deps))
		if deg[i] == 0 {
			queue = append(queue, i)
		}
	}
	seen := 0
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, s := range g.Tasks[id].Succs {
			if deg[s]--; deg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if seen != n {
		return fmt.Errorf("sched: %d tasks never became ready (dependence cycle?)", n-seen)
	}
	return nil
}
