// Package resilience is the fault-tolerant execution layer shared by the
// NPDP engines: typed task failures (panics converted to errors with the
// task's identity attached), a bounded exponential-backoff retry policy
// with an injectable sleeper, a deterministic seeded fault injector for
// tests and soak runs, block seals, and the owner-tagged temp+rename
// helpers behind the pager's spill file and index, which are a solve's
// checkpoint.
//
// The paper's tier-2 design makes all of this cheap: each memory block
// is computed entirely by one task, every relaxation is a monotone
// idempotent min, and the dependence graph is the ≤2-predecessor
// simplification of Section IV-B — so a task can be retried in place, a
// completed block is immutable for the rest of the solve, and a resumed
// run only needs to know which blocks are final to pre-notify the graph.
package resilience

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"
)

// PanicError is a worker panic converted to an error, carrying the
// identity of the task that panicked so failures are attributable even
// when the panic came from deep inside a kernel.
//
//npdplint:watch
type PanicError struct {
	// TaskID is the scheduler task that panicked.
	TaskID int
	// Bi, Bj are the task's scheduling-block coordinates.
	Bi, Bj int
	// Worker is the worker index that executed the task.
	Worker int
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error describes the panic with its task identity.
func (e *PanicError) Error() string {
	return fmt.Sprintf("task %d (scheduling block %d,%d) panicked on worker %d: %v",
		e.TaskID, e.Bi, e.Bj, e.Worker, e.Value)
}

// TaskError wraps an exec-level failure with the identity of the task it
// occurred on. Retry exhaustion and fault reports surface through it.
type TaskError struct {
	TaskID   int
	Bi, Bj   int
	Worker   int
	Attempts int // executions performed, including the failing one
	Err      error
}

// Error describes the failure with its task identity.
func (e *TaskError) Error() string {
	if e.Attempts > 1 {
		return fmt.Sprintf("task %d (scheduling block %d,%d) failed on worker %d after %d attempts: %v",
			e.TaskID, e.Bi, e.Bj, e.Worker, e.Attempts, e.Err)
	}
	return fmt.Sprintf("task %d (scheduling block %d,%d) failed on worker %d: %v",
		e.TaskID, e.Bi, e.Bj, e.Worker, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *TaskError) Unwrap() error { return e.Err }

// transientError marks a failure as retryable.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient marks err as a transient failure: retry policies re-execute
// the task instead of failing the solve. A nil err stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err (or anything it wraps) was marked
// Transient. Panics converted by Recover are never transient: a panic
// means the task body itself is broken, not the environment.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// DefaultMaxDelay is the backoff ceiling applied when a policy leaves
// MaxDelay zero. An explicit ceiling everywhere means a storm of
// injected or environmental delays can inflate a retry schedule to at
// most this bound per retry, never to unbounded multi-minute sleeps.
const DefaultMaxDelay = 2 * time.Second

// RetryPolicy bounds per-task re-execution of transient failures with
// exponential backoff. The zero value performs no retries (one attempt,
// no sleeping), so engines that never configure it behave exactly as
// before.
type RetryPolicy struct {
	// MaxRetries is the number of re-executions allowed after the first
	// attempt; 0 disables retry.
	MaxRetries int
	// BaseDelay is the backoff before the first retry; it doubles each
	// further retry. 0 means no sleeping (still bounded by MaxRetries).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth; 0 means DefaultMaxDelay.
	// The ceiling is always enforced: no schedule sleeps longer than
	// this per retry.
	MaxDelay time.Duration
	// Jitter enables full jitter: each backoff is drawn uniformly from
	// (0, d] where d is the capped exponential delay, decorrelating the
	// retry storms of tasks that failed together.
	Jitter bool
	// Rand is the uniform [0,1) source full jitter draws from; nil means
	// math/rand's shared source. Tests inject a deterministic sequence
	// so jittered schedules are assertable.
	Rand func() float64
	// Sleep is the sleeper used between attempts; nil means time.Sleep.
	// Tests inject a recording fake so backoff is assertable without
	// real waiting.
	Sleep func(time.Duration)
}

// maxDelay returns the effective ceiling.
func (p RetryPolicy) maxDelay() time.Duration {
	if p.MaxDelay > 0 {
		return p.MaxDelay
	}
	return DefaultMaxDelay
}

// Backoff returns the delay before retry number `retry` (1-based):
// BaseDelay doubled retry-1 times, capped at the ceiling (MaxDelay, or
// DefaultMaxDelay when unset). With Jitter the capped delay d becomes a
// uniform draw from (0, d] — "full jitter" — so concurrent retriers
// spread out instead of thundering back together.
func (p RetryPolicy) Backoff(retry int) time.Duration {
	if p.BaseDelay <= 0 || retry <= 0 {
		return 0
	}
	ceiling := p.maxDelay()
	d := p.BaseDelay
	for i := 1; i < retry; i++ {
		d *= 2
		if d >= ceiling || d <= 0 { // d <= 0 catches duration overflow
			d = ceiling
			break
		}
	}
	if d > ceiling {
		d = ceiling
	}
	if p.Jitter {
		r := rand.Float64
		if p.Rand != nil {
			r = p.Rand
		}
		// (0, d]: never a zero sleep, never above the capped delay.
		d = time.Duration((1 - r()) * float64(d))
		if d <= 0 {
			d = 1
		}
	}
	return d
}

// sleep waits for d through the injectable sleeper.
func (p RetryPolicy) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if p.Sleep != nil {
		p.Sleep(d)
		return
	}
	time.Sleep(d)
}

// Recover runs fn, converting a panic into a *PanicError with the stack
// captured. Task identity fields are zero; the scheduler or engine that
// knows the task fills them in.
func Recover(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: captureStack()}
		}
	}()
	return fn()
}

// captureStack snapshots the current goroutine's stack.
func captureStack() []byte {
	buf := make([]byte, 16<<10)
	return buf[:runtime.Stack(buf, false)]
}

// Do runs fn (which receives the 0-based attempt number) until it
// succeeds, returns a non-transient error, or exhausts the retry budget.
// It returns fn's last error and the number of attempts performed.
// Panics inside fn are converted to *PanicError (never retried) with the
// stack attached; the caller fills in task identity.
func (p RetryPolicy) Do(fn func(attempt int) error) (attempts int, err error) {
	for attempt := 0; ; attempt++ {
		err = Recover(func() error { return fn(attempt) })
		attempts = attempt + 1
		if err == nil || !IsTransient(err) || attempt >= p.MaxRetries {
			return attempts, err
		}
		p.sleep(p.Backoff(attempt + 1))
	}
}
