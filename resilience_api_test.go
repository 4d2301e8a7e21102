package cellnpdp_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"cellnpdp"
	"cellnpdp/internal/resilience"
)

// chainTable builds the CLI's seeded workload: a weighted chain whose
// optimal substructure exercises every cell.
func chainTable(t *testing.T, n int) *cellnpdp.Table[float32] {
	t.Helper()
	tbl, err := cellnpdp.NewTable[float32](n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < n; i++ {
		if err := tbl.Set(i, i+1, float32(1+(i*7919)%97)); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// assertTablesIdentical compares every cell bit for bit.
func assertTablesIdentical(t *testing.T, want, got *cellnpdp.Table[float32], label string) {
	t.Helper()
	n := want.Len()
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			wv, _ := want.At(i, j)
			gv, _ := got.At(i, j)
			if wv != gv {
				t.Fatalf("%s: cell (%d,%d) differs: %v vs %v", label, i, j, gv, wv)
			}
		}
	}
}

// TestSolveWorkersRejectedAllEngines pins the uniform validation: a
// negative worker count is a configuration error on every engine, with
// the engine named in the message.
func TestSolveWorkersRejectedAllEngines(t *testing.T) {
	for _, eng := range []cellnpdp.Engine{cellnpdp.Serial, cellnpdp.Tiled, cellnpdp.Parallel, cellnpdp.Cell} {
		tbl := chainTable(t, 64)
		_, err := cellnpdp.Solve(tbl, cellnpdp.Options{Engine: eng, Workers: -1})
		if err == nil {
			t.Fatalf("%v engine accepted Workers=-1", eng)
		}
	}
}

// TestSolveCtxCancelNoGoroutineLeak cancels parallel solves mid-run and
// asserts (a) the context error surfaces and (b) no worker goroutines
// outlive the call. Run under -race via scripts/ci.sh.
func TestSolveCtxCancelNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for trial := 0; trial < 3; trial++ {
		tbl := chainTable(t, 1600)
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		_, err := cellnpdp.SolveCtx(ctx, tbl, cellnpdp.Options{Engine: cellnpdp.Parallel, Workers: 4})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("trial %d: cancelled solve returned %v", trial, err)
		}
	}
	// Workers exit before SolveCtx returns; the ctx watcher may need a
	// scheduling round to observe its stop channel.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d at baseline", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSolveResumeBitIdentical is the acceptance property: a solve killed
// part-way, resumed from its checkpoint, produces a table bit-identical
// to an uninterrupted serial solve. Loud faults kill the run mid-way.
// Silent corruption kills it only at the seal audit, after the flipped
// blocks and every task computed from them are complete, so the
// checkpoint must leave those tasks out instead of resuming them.
func TestSolveResumeBitIdentical(t *testing.T) {
	ref := chainTable(t, 400)
	if _, err := cellnpdp.Solve(ref, cellnpdp.Options{Engine: cellnpdp.Serial}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		kill cellnpdp.Options
		want any // pointer to the error type the killed run returns
	}{
		{"loud faults", cellnpdp.Options{FaultRate: 0.4, FaultSeed: 5}, new(*resilience.TaskError)},
		{"silent corruption", cellnpdp.Options{BlockBytes: 4096, FaultRate: 0.3, FaultSeed: 1, FaultKinds: "corrupt"},
			new(*resilience.CorruptionError)},
	} {
		t.Run(c.name, func(t *testing.T) {
			ck := filepath.Join(t.TempDir(), "solve.npck")
			kill := c.kill
			kill.Engine, kill.Workers, kill.NoFallback = cellnpdp.Parallel, 2, true
			kill.CheckpointPath, kill.CheckpointEvery = ck, 1
			if _, err := cellnpdp.Solve(chainTable(t, 400), kill); !errors.As(err, c.want) {
				t.Fatalf("faulted run returned %v, want %T", err, c.want)
			}

			resumed := chainTable(t, 400)
			res, err := cellnpdp.Solve(resumed, cellnpdp.Options{
				Engine: cellnpdp.Parallel, Workers: 2, BlockBytes: c.kill.BlockBytes,
				CheckpointPath: ck, Resume: true, NoFallback: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.ResumedTasks == 0 {
				t.Fatal("resume restored no tasks; checkpoint was empty")
			}
			assertTablesIdentical(t, ref, resumed, "resumed vs serial")
		})
	}
}

// TestSolveFaultsRecoverViaRetry asserts the 5%-injection acceptance
// scenario: with retries enabled the parallel engine completes correctly
// without falling back.
func TestSolveFaultsRecoverViaRetry(t *testing.T) {
	ref := chainTable(t, 300)
	if _, err := cellnpdp.Solve(ref, cellnpdp.Options{Engine: cellnpdp.Serial}); err != nil {
		t.Fatal(err)
	}
	faulted := chainTable(t, 300)
	res, err := cellnpdp.Solve(faulted, cellnpdp.Options{
		Engine: cellnpdp.Parallel, Workers: 4,
		FaultRate: 0.05, FaultSeed: 7, MaxRetries: 3,
		NoFallback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatal("retry path degraded instead of recovering in place")
	}
	assertTablesIdentical(t, ref, faulted, "retried vs serial")
}

// TestSolveHealRecoversSilentCorruption is the public-API acceptance
// property for the sealing layer: silent bit flips at a 5% task rate
// with Heal on converge to the serial answer bit for bit, with the heal
// events reported in the Result.
func TestSolveHealRecoversSilentCorruption(t *testing.T) {
	ref := chainTable(t, 300)
	if _, err := cellnpdp.Solve(ref, cellnpdp.Options{Engine: cellnpdp.Serial}); err != nil {
		t.Fatal(err)
	}
	healed := chainTable(t, 300)
	res, err := cellnpdp.Solve(healed, cellnpdp.Options{
		Engine: cellnpdp.Parallel, Workers: 4,
		FaultRate: 0.05, FaultSeed: 7, FaultKinds: "corrupt",
		Heal: true, NoFallback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CorruptBlocks == 0 || res.HealRounds == 0 || res.RecomputedTasks == 0 {
		t.Fatalf("heal events not reported: %+v", res)
	}
	assertTablesIdentical(t, ref, healed, "healed vs serial")

	// The cell engine heals through the same options.
	cellHealed := chainTable(t, 300)
	res, err = cellnpdp.Solve(cellHealed, cellnpdp.Options{
		Engine: cellnpdp.Cell, Workers: 4,
		FaultRate: 0.2, FaultSeed: 7, FaultKinds: "corrupt",
		Heal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CorruptBlocks == 0 {
		t.Fatalf("cell heal events not reported: %+v", res)
	}
	assertTablesIdentical(t, ref, cellHealed, "cell healed vs serial")
}

// TestSolveCorruptionDetectedWithoutHeal asserts the detect-only
// contract through the public API: sealing is implied by a corrupt fault
// kind, so without Heal (and without fallback) the solve fails with the
// seal-audit error — never a silently wrong table.
func TestSolveCorruptionDetectedWithoutHeal(t *testing.T) {
	tbl := chainTable(t, 300)
	_, err := cellnpdp.Solve(tbl, cellnpdp.Options{
		Engine: cellnpdp.Parallel, Workers: 4,
		FaultRate: 0.1, FaultSeed: 7, FaultKinds: "corrupt",
		NoFallback: true,
	})
	var ce *resilience.CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("want *resilience.CorruptionError, got %v", err)
	}
	// With fallback allowed, the corruption degrades to a clean tiled
	// solve instead — detected, then recovered from pristine input.
	ref := chainTable(t, 300)
	if _, err := cellnpdp.Solve(ref, cellnpdp.Options{Engine: cellnpdp.Serial}); err != nil {
		t.Fatal(err)
	}
	degraded := chainTable(t, 300)
	res, err := cellnpdp.Solve(degraded, cellnpdp.Options{
		Engine: cellnpdp.Parallel, Workers: 4,
		FaultRate: 0.1, FaultSeed: 7, FaultKinds: "corrupt",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.CorruptBlocks == 0 {
		t.Fatalf("corrupted solve neither healed nor degraded: %+v", res)
	}
	assertTablesIdentical(t, ref, degraded, "degraded-after-corruption vs serial")
}

// TestSolveHealOptionValidation pins the new knobs' range checks.
func TestSolveHealOptionValidation(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "solve.npsp")
	cases := []cellnpdp.Options{
		{Engine: cellnpdp.Parallel, HealAttempts: -1},
		{Engine: cellnpdp.Parallel, AuditEvery: -1},
		{Engine: cellnpdp.Parallel, FaultKinds: "corupt"},
		{Engine: cellnpdp.Parallel, FaultRate: -0.5},
		{Engine: cellnpdp.Parallel, FaultRate: 1.5},
		{Engine: cellnpdp.Parallel, SchedSide: -1},
		{Engine: cellnpdp.Parallel, BlockBytes: -1},
		{Engine: cellnpdp.Parallel, CheckpointEvery: -1},
		// Serial and Cell neither checkpoint nor resume, and Resume needs
		// a checkpoint.
		{Engine: cellnpdp.Serial, CheckpointPath: ck},
		{Engine: cellnpdp.Cell, CheckpointPath: ck},
		{Engine: cellnpdp.Serial, CheckpointPath: ck, Resume: true},
		{Engine: cellnpdp.Cell, CheckpointPath: ck, Resume: true},
		{Engine: cellnpdp.Parallel, Resume: true},
		{Engine: cellnpdp.Tiled, Resume: true},
	}
	for _, opts := range cases {
		tbl := chainTable(t, 64)
		if _, err := cellnpdp.Solve(tbl, opts); err == nil {
			t.Fatalf("options %+v accepted", opts)
		}
	}
	// Tiled keeps a checkpoint and resumes it, as the executor on one
	// worker.
	ref := chainTable(t, 64)
	if _, err := cellnpdp.Solve(ref, cellnpdp.Options{Engine: cellnpdp.Serial}); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []cellnpdp.Options{
		{Engine: cellnpdp.Tiled, CheckpointPath: ck},
		{Engine: cellnpdp.Tiled, CheckpointPath: ck, Resume: true},
	} {
		tbl := chainTable(t, 64)
		res, err := cellnpdp.Solve(tbl, opts)
		if err != nil {
			t.Fatalf("options %+v: %v", opts, err)
		}
		if opts.Resume && res.ResumedTasks == 0 {
			t.Fatal("a Tiled resume of a finished checkpoint restored no tasks")
		}
		assertTablesIdentical(t, ref, tbl, fmt.Sprintf("options %+v", opts))
	}
	for _, opts := range []cellnpdp.Options{{SchedSide: -1}, {BlockBytes: -1}} {
		if _, err := cellnpdp.EstimateSolve[float32](64, opts); err == nil {
			t.Fatalf("EstimateSolve accepted options %+v", opts)
		}
	}
}

// TestSolveDegradesToTiled asserts graceful degradation: unretried
// faults fail the parallel engine, the tiled engine recovers from clean
// input, and the reason is recorded.
func TestSolveDegradesToTiled(t *testing.T) {
	ref := chainTable(t, 300)
	if _, err := cellnpdp.Solve(ref, cellnpdp.Options{Engine: cellnpdp.Serial}); err != nil {
		t.Fatal(err)
	}
	var logged bool
	degraded := chainTable(t, 300)
	res, err := cellnpdp.Solve(degraded, cellnpdp.Options{
		Engine: cellnpdp.Parallel, Workers: 4,
		FaultRate: 0.6, FaultSeed: 3,
		Logf: func(string, ...any) { logged = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.DegradedReason == "" || !logged {
		t.Fatalf("degradation not reported: %+v logged=%v", res, logged)
	}
	assertTablesIdentical(t, ref, degraded, "degraded vs serial")
}

// TestSolveResumeRejectsGeometryMismatch asserts a checkpoint from a
// different problem cannot silently poison a solve, and that the refused
// resume leaves the checkpoint byte for byte as it was.
func TestSolveResumeRejectsGeometryMismatch(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "solve.npsp")
	killed := chainTable(t, 400)
	_, err := cellnpdp.Solve(killed, cellnpdp.Options{
		Engine: cellnpdp.Parallel, Workers: 2,
		FaultRate: 0.4, FaultSeed: 5,
		CheckpointPath: ck, CheckpointEvery: 1,
		NoFallback: true,
	})
	if err == nil {
		t.Fatal("faulted run unexpectedly succeeded")
	}
	before := readCheckpoint(t, ck)
	for _, opts := range []cellnpdp.Options{
		{Engine: cellnpdp.Parallel, CheckpointPath: ck, Resume: true},
		{Engine: cellnpdp.Parallel, CheckpointPath: ck, Resume: true, BlockBytes: 8192},
	} {
		other := chainTable(t, 500)
		if opts.BlockBytes != 0 {
			other = chainTable(t, 400)
		}
		if _, err := cellnpdp.Solve(other, opts); err == nil {
			t.Fatalf("resume accepted a checkpoint of another geometry (%+v)", opts)
		}
		if after := readCheckpoint(t, ck); !bytes.Equal(after, before) {
			t.Fatalf("a refused resume (%+v) changed the checkpoint", opts)
		}
	}
}

// readCheckpoint returns the bytes of the checkpoint at path: its spill
// file followed by its index.
func readCheckpoint(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := os.ReadFile(path + ".idx")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, idx...)
}

// TestSolveDegradationCancelledMidFallback cancels the context at the
// exact moment degradation begins (Options.Logf fires precisely then),
// so the Tiled fallback starts under a dead context. The solve must
// surface context.Canceled — not a TaskError, and never a silent
// partial success.
func TestSolveDegradationCancelledMidFallback(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tbl := chainTable(t, 300)
	res, err := cellnpdp.SolveCtx(ctx, tbl, cellnpdp.Options{
		Engine: cellnpdp.Parallel, Workers: 4,
		FaultRate: 0.6, FaultSeed: 3,
		Logf: func(string, ...any) { cancel() },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("(%+v, %v), want context.Canceled from the cancelled fallback", res, err)
	}
	var te *resilience.TaskError
	if errors.As(err, &te) {
		t.Fatalf("cancellation surfaced as a task failure: %v", err)
	}
}

// TestSolveDegradationRacingCancel races an external cancel against the
// Parallel→Tiled degradation at varied delays (run under -race in CI).
// Whatever the interleaving, the only legal outcomes are a clean
// degraded solve or context.Canceled, and no goroutines may leak.
func TestSolveDegradationRacingCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			time.Sleep(time.Duration(i) * 500 * time.Microsecond)
			cancel()
		}()
		tbl := chainTable(t, 300)
		res, err := cellnpdp.SolveCtx(ctx, tbl, cellnpdp.Options{
			Engine: cellnpdp.Parallel, Workers: 4,
			FaultRate: 0.6, FaultSeed: 3,
		})
		switch {
		case err == nil:
			if !res.Degraded {
				t.Fatalf("iteration %d: fault-injected solve finished undegraded", i)
			}
		case errors.Is(err, context.Canceled):
		default:
			t.Fatalf("iteration %d: err = %v, want nil (degraded) or context.Canceled", i, err)
		}
		<-done
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak across racing cancels: %d before, %d after", before, after)
	}
}
