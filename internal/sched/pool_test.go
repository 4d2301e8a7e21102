package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cellnpdp/internal/resilience"
)

// TestRunPoolStress floods the lock-free pool with many tiny tasks on an
// oversubscribed worker set and asserts exact completion counts plus a
// valid dependence order: every predecessor's completion must be visible
// before a successor starts. Run with -race (scripts/bench.sh wires it
// into the verify path).
func TestRunPoolStress(t *testing.T) {
	g, err := NewGraph(63, 1) // 2016 tasks
	if err != nil {
		t.Fatal(err)
	}
	workers := runtime.GOMAXPROCS(0) * 4
	execs := make([]atomic.Int32, len(g.Tasks))
	done := make([]atomic.Bool, len(g.Tasks))
	err = RunPool(g, workers, func(_ int, task Task) error {
		for _, d := range task.Deps {
			if !done[d].Load() {
				return fmt.Errorf("task %d started before dep %d completed", task.ID, d)
			}
		}
		execs[task.ID].Add(1)
		done[task.ID].Store(true)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := range execs {
		if c := execs[id].Load(); c != 1 {
			t.Fatalf("task %d executed %d times, want exactly 1", id, c)
		}
	}
}

// TestRunPoolErrorStopsSuccessors asserts the cancellation contract: once
// a task fails, no task downstream of it (transitively) ever executes,
// because the failed task notifies no successors.
func TestRunPoolErrorStopsSuccessors(t *testing.T) {
	g, err := NewGraph(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	failID, ok := g.TaskID(2, 5)
	if !ok {
		t.Fatal("no task (2,5)")
	}
	// All transitive successors of the failed task.
	downstream := map[int]bool{}
	stack := []int{failID}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Tasks[id].Succs {
			if !downstream[s] {
				downstream[s] = true
				stack = append(stack, s)
			}
		}
	}
	if len(downstream) == 0 {
		t.Fatal("picked a task with no successors; test proves nothing")
	}

	boom := errors.New("boom")
	var mu sync.Mutex
	executed := map[int]bool{}
	err = RunPool(g, 4, func(_ int, task Task) error {
		mu.Lock()
		executed[task.ID] = true
		mu.Unlock()
		if task.ID == failID {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	for id := range executed {
		if downstream[id] {
			t.Errorf("task %d executed despite being downstream of failed task %d", id, failID)
		}
	}
}

// TestRunPoolSingleWorkerStopsAfterError pins the prompt-stop behavior
// deterministically: with one worker, the first failure must be the last
// exec — the seed scheduler instead drained all remaining tasks through
// the loop.
func TestRunPoolSingleWorkerStopsAfterError(t *testing.T) {
	g, err := NewGraph(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	execs := 0
	err = RunPool(g, 1, func(_ int, task Task) error {
		execs++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	if execs != 1 {
		t.Fatalf("worker executed %d tasks after the failure, want exec count 1", execs)
	}
}

// TestRunPoolDetectsCycle hands the pool a hand-built cyclic graph; it
// must error up front instead of hanging the workers.
func TestRunPoolDetectsCycle(t *testing.T) {
	g := &Graph{Tasks: []Task{
		{ID: 0, Deps: []int{1}, Succs: []int{1}},
		{ID: 1, Deps: []int{0}, Succs: []int{0}},
	}}
	err := RunPool(g, 2, func(int, Task) error { return nil })
	if err == nil {
		t.Fatal("cyclic graph accepted")
	}
}

// TestSuccsSortedByCriticalPath pins the dispatch priority baked into the
// graph constructors: every successor list is ordered nearest-diagonal
// first, so completions release the heads of the longest remaining
// dependence chains before shallower work.
func TestSuccsSortedByCriticalPath(t *testing.T) {
	for name, build := range map[string]func(int, int) (*Graph, error){
		"simplified": NewGraph, "full": NewFullGraph,
	} {
		g, err := build(8, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range g.Tasks {
			prev := -1
			for _, s := range task.Succs {
				d := g.Tasks[s].Bj - g.Tasks[s].Bi
				if d < prev {
					t.Fatalf("%s: task (%d,%d) succs %v not in critical-path order", name, task.Bi, task.Bj, task.Succs)
				}
				prev = d
			}
		}
	}
}

// TestRunPoolDeterministicFirstError gates several concurrently-failing
// root tasks behind a barrier so they all start before any of them
// reports, then asserts the pool reports the failure with the smallest
// task ID — not whichever worker reached the error slot first.
func TestRunPoolDeterministicFirstError(t *testing.T) {
	g, err := NewGraph(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	roots := g.Roots() // the 8 diagonal tasks, all ready at once
	if len(roots) != 8 {
		t.Fatalf("%d roots, want 8", len(roots))
	}
	failing := map[int]bool{}
	lowest := -1
	for _, id := range roots {
		if b := g.Tasks[id].Bi; b == 2 || b == 5 || b == 7 {
			failing[id] = true
			if lowest == -1 || id < lowest {
				lowest = id
			}
		}
	}
	for trial := 0; trial < 20; trial++ {
		var barrier sync.WaitGroup
		barrier.Add(len(roots))
		err := RunPool(g, len(roots), func(_ int, task Task) error {
			if len(task.Deps) > 0 {
				// A successor of two passing roots, e.g. (3,4), can be
				// dispatched before the first failure cancels the run;
				// only the roots may touch the barrier.
				return nil
			}
			barrier.Done()
			barrier.Wait() // every root is mid-execution before anyone fails
			if failing[task.ID] {
				return fmt.Errorf("fail-task-%d", task.ID)
			}
			return nil
		})
		want := fmt.Sprintf("fail-task-%d", lowest)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("trial %d: reported %v, want the smallest-ID failure %q", trial, err, want)
		}
	}
}

// TestRunPoolPanicIsolated asserts a panicking task neither kills the
// process nor deadlocks the pool: it surfaces as a PanicError carrying
// the task identity, and nothing downstream of it executes.
func TestRunPoolPanicIsolated(t *testing.T) {
	g, err := NewGraph(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	failID, ok := g.TaskID(1, 4)
	if !ok {
		t.Fatal("no task (1,4)")
	}
	var mu sync.Mutex
	executed := map[int]bool{}
	err = RunPool(g, 4, func(_ int, task Task) error {
		mu.Lock()
		executed[task.ID] = true
		mu.Unlock()
		if task.ID == failID {
			panic("synthetic kernel bug")
		}
		return nil
	})
	var pe *resilience.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panic surfaced as %T: %v", err, err)
	}
	if pe.TaskID != failID || pe.Bi != 1 || pe.Bj != 4 {
		t.Fatalf("panic identity %+v, want task %d at (1,4)", pe, failID)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic stack not captured")
	}
	for _, s := range g.Tasks[failID].Succs {
		if executed[s] {
			t.Errorf("task %d executed downstream of the panicked task", s)
		}
	}
}

// TestRunPoolCtxCancel cancels mid-solve and asserts the pool drains
// promptly, reports the context error, and stops dispatching new tasks.
func TestRunPoolCtxCancel(t *testing.T) {
	g, err := NewGraph(24, 1) // 300 tasks
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var executed atomic.Int32
	errc := make(chan error, 1)
	go func() {
		errc <- RunPoolCtx(ctx, g, 4, PoolRunOptions{}, func(_ int, task Task) error {
			if executed.Add(1) == 10 {
				cancel()
			}
			return nil
		})
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled pool did not drain")
	}
	if n := executed.Load(); int(n) >= len(g.Tasks) {
		t.Fatalf("all %d tasks executed despite cancellation", n)
	}
}

// TestRunPoolCtxDeadline asserts an already-expired deadline stops the
// pool at dispatch granularity: workers blocked on the queue wake via
// the poison path and the run reports DeadlineExceeded.
func TestRunPoolCtxDeadline(t *testing.T) {
	g, err := NewGraph(12, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	var executed atomic.Int32
	err = RunPoolCtx(ctx, g, 4, PoolRunOptions{}, func(int, Task) error {
		executed.Add(1)
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline returned %v", err)
	}
	if n := executed.Load(); int(n) >= len(g.Tasks) {
		t.Fatalf("expired run still executed all %d tasks", n)
	}
}

// TestRunPoolResumeCompleted pre-notifies a dependence-closed set of
// completed tasks and asserts the pool executes exactly the complement,
// once each, in valid order relative to the pre-completed work.
func TestRunPoolResumeCompleted(t *testing.T) {
	g, err := NewGraph(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Diagonal + first superdiagonal: dependence-closed under the
	// two-predecessor rule (their deps are diagonal tasks).
	completed := make([]bool, len(g.Tasks))
	nDone := 0
	for i, task := range g.Tasks {
		if task.Bj-task.Bi <= 1 {
			completed[i] = true
			nDone++
		}
	}
	var mu sync.Mutex
	count := map[int]int{}
	err = RunPoolCtx(context.Background(), g, 4, PoolRunOptions{Completed: completed}, func(_ int, task Task) error {
		mu.Lock()
		defer mu.Unlock()
		for _, d := range task.Deps {
			if !completed[d] && count[d] == 0 {
				return fmt.Errorf("task %d ran before live dep %d", task.ID, d)
			}
		}
		count[task.ID]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(count) != len(g.Tasks)-nDone {
		t.Fatalf("executed %d tasks, want %d", len(count), len(g.Tasks)-nDone)
	}
	for id, c := range count {
		if completed[id] {
			t.Errorf("pre-completed task %d re-executed", id)
		}
		if c != 1 {
			t.Errorf("task %d executed %d times", id, c)
		}
	}
	// A fully-completed bitmap is a no-op success.
	all := make([]bool, len(g.Tasks))
	for i := range all {
		all[i] = true
	}
	err = RunPoolCtx(context.Background(), g, 4, PoolRunOptions{Completed: all}, func(int, Task) error {
		t.Error("exec called on fully-completed graph")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A wrong-sized bitmap is rejected up front.
	err = RunPoolCtx(context.Background(), g, 4, PoolRunOptions{Completed: make([]bool, 3)}, func(int, Task) error { return nil })
	if err == nil {
		t.Fatal("wrong-sized completion bitmap accepted")
	}
}

// TestRunPoolOnTaskDone asserts the completion hook fires exactly once
// per executed task before the run returns, and that a panic inside the
// hook fails the run with the task attached instead of crashing.
func TestRunPoolOnTaskDone(t *testing.T) {
	g, err := NewGraph(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	notified := map[int]int{}
	err = RunPoolCtx(context.Background(), g, 3, PoolRunOptions{
		OnTaskDone: func(task Task) {
			mu.Lock()
			notified[task.ID]++
			mu.Unlock()
		},
	}, func(int, Task) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(notified) != len(g.Tasks) {
		t.Fatalf("hook fired for %d tasks, want %d", len(notified), len(g.Tasks))
	}
	for id, c := range notified {
		if c != 1 {
			t.Errorf("hook fired %d times for task %d", c, id)
		}
	}
	err = RunPoolCtx(context.Background(), g, 3, PoolRunOptions{
		OnTaskDone: func(Task) { panic("checkpoint writer bug") },
	}, func(int, Task) error { return nil })
	var pe *resilience.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("hook panic surfaced as %v", err)
	}
}
