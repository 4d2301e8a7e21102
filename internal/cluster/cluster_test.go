package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cellnpdp/internal/npdp"
	"cellnpdp/internal/resilience"
	"cellnpdp/internal/sched"
	"cellnpdp/internal/tri"
	"cellnpdp/internal/workload"
)

const (
	testN    = 256
	testTile = 32
	testSeed = 99
)

// raceEnabled reports a -race build (set in race_test.go).
var raceEnabled bool

// serialRef solves the test workload with SolveSerial — the bit-identity
// oracle every cluster run is audited against.
func serialRef(t *testing.T) *tri.RowMajor[float32] {
	t.Helper()
	m := workload.Chain[float32](testN, testSeed)
	npdp.SolveSerial(m)
	return m
}

// testTable builds the fresh tiled input the coordinator solves in place.
func testTable(t testing.TB) *tri.Tiled[float32] {
	t.Helper()
	return tri.ToTiled(workload.Chain[float32](testN, testSeed), testTile)
}

// requireIdentical fails unless the cluster-solved table is bit-identical
// to the serial oracle.
func requireIdentical(t *testing.T, ref *tri.RowMajor[float32], got *tri.Tiled[float32]) {
	t.Helper()
	if i, j, av, bv, diff := tri.FirstDiff[float32](ref, got); diff {
		t.Fatalf("cluster result diverges from SolveSerial at (%d,%d): serial %v, cluster %v", i, j, av, bv)
	}
}

// testOptions returns coordinator options tuned for fast tests: short
// heartbeats and a bounded workerless wait.
func testOptions(stats *Stats) Options {
	return Options{
		HeartbeatEvery:  50 * time.Millisecond,
		DeadlineAfter:   2 * time.Second,
		WorkerlessAfter: 10 * time.Second,
		Stats:           stats,
	}
}

// startCoordinator launches Coordinate on a loopback listener and returns
// its address plus a wait func for the run's error.
func startCoordinator(ctx context.Context, t *testing.T, tbl *tri.Tiled[float32], opts Options) (addr string, wait func() error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr = ln.Addr().String()
	errc := make(chan error, 1)
	go func() { errc <- Coordinate(ctx, ln, tbl, opts) }()
	return addr, func() error {
		select {
		case err := <-errc:
			return err
		case <-time.After(90 * time.Second):
			t.Fatal("coordinator did not finish within 90s")
			return nil
		}
	}
}

// startWorker launches an in-process worker goroutine. The returned
// cancel is the kill switch (the in-process analogue of SIGKILL: the
// context watcher slams the connection shut mid-whatever); wg drains at
// test end.
func startWorker(ctx context.Context, t *testing.T, wg *sync.WaitGroup, addr string, opts WorkerOptions) context.CancelFunc {
	t.Helper()
	wctx, cancel := context.WithCancel(ctx)
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := RunWorker(wctx, addr, opts)
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Logf("worker %s exited: %v", opts.Name, err)
		}
	}()
	t.Cleanup(cancel)
	return cancel
}

// joinGate wraps logf so the returned channel closes once the
// coordinator has admitted a worker named name. Tests start their other
// workers only after it fires, so a worker that dials through a proxy
// (or is about to be killed) is sure to hold a shard before the fast
// ones can finish the whole solve without it.
func joinGate(logf func(string, ...any), name string) (func(string, ...any), <-chan struct{}) {
	joined := make(chan struct{})
	var once sync.Once
	prefix := "cluster: worker " + name + "#"
	return func(format string, args ...any) {
		logf(format, args...)
		if line := fmt.Sprintf(format, args...); strings.HasPrefix(line, prefix) && strings.Contains(line, " joined ") {
			once.Do(func() { close(joined) })
		}
	}, joined
}

// awaitJoin blocks until joined fires or the test context ends.
func awaitJoin(ctx context.Context, t *testing.T, joined <-chan struct{}, name string) {
	t.Helper()
	select {
	case <-joined:
	case <-ctx.Done():
		t.Fatalf("worker %s never joined: %v", name, ctx.Err())
	}
}

// TestClusterMatchesSerial proves the no-fault distributed solve is
// bit-identical to SolveSerial across worker counts and scheduling-block
// sides, including shards with multiple workers and g>1 operand streaming.
func TestClusterMatchesSerial(t *testing.T) {
	ref := serialRef(t)
	for _, tc := range []struct {
		name      string
		workers   int
		shards    int
		schedSide int
	}{
		{"1worker", 1, 1, 1},
		{"3workers", 3, 3, 1},
		{"2workers-g2", 2, 2, 2},
		{"4workers-2shards", 4, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			tbl := testTable(t)
			var stats Stats
			opts := testOptions(&stats)
			opts.Shards = tc.shards
			opts.SchedSide = tc.schedSide
			addr, wait := startCoordinator(ctx, t, tbl, opts)
			var wg sync.WaitGroup
			for w := 0; w < tc.workers; w++ {
				startWorker(ctx, t, &wg, addr, WorkerOptions{Name: "w", Logf: t.Logf})
			}
			if err := wait(); err != nil {
				t.Fatalf("Coordinate: %v", err)
			}
			cancel()
			wg.Wait()
			requireIdentical(t, ref, tbl)
			if stats.Accepted != stats.Tasks {
				t.Fatalf("accepted %d of %d tasks", stats.Accepted, stats.Tasks)
			}
			if stats.WorkerDeaths != 0 || stats.SealMismatches != 0 {
				t.Fatalf("fault-free run recorded deaths=%d mismatches=%d", stats.WorkerDeaths, stats.SealMismatches)
			}
		})
	}
}

// TestClusterSurvivesWorkerKill kills a worker mid-wavefront (hard
// connection slam, the in-process stand-in for SIGKILL) and proves the
// survivors absorb its in-flight tasks and the result stays
// bit-identical.
func TestClusterSurvivesWorkerKill(t *testing.T) {
	ref := serialRef(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tbl := testTable(t)
	var stats Stats
	var once sync.Once
	var killVictim context.CancelFunc // set before any worker connects
	opts := testOptions(&stats)
	opts.Shards = 3
	var joined <-chan struct{}
	opts.Logf, joined = joinGate(t.Logf, "victim")
	opts.OnTaskDone = func(completed int, _ sched.Task) {
		if completed == 8 {
			once.Do(func() { go killVictim() })
		}
	}
	addr, wait := startCoordinator(ctx, t, tbl, opts)
	var wg sync.WaitGroup
	killVictim = startWorker(ctx, t, &wg, addr, WorkerOptions{Name: "victim"})
	awaitJoin(ctx, t, joined, "victim")
	for w := 0; w < 2; w++ {
		startWorker(ctx, t, &wg, addr, WorkerOptions{Name: "survivor"})
	}
	if err := wait(); err != nil {
		t.Fatalf("Coordinate: %v", err)
	}
	cancel()
	wg.Wait()
	requireIdentical(t, ref, tbl)
	if stats.WorkerDeaths < 1 {
		t.Fatalf("kill was never observed: deaths=%d", stats.WorkerDeaths)
	}
	t.Logf("deaths=%d redispatched=%d accepted=%d", stats.WorkerDeaths, stats.Redispatched, stats.Accepted)
}

// TestClusterHeartbeatPartition routes one worker through the
// network-partition proxy and black-holes it mid-wavefront: no EOF ever
// arrives, so only the heartbeat deadline can declare the death. The
// survivors finish and the result stays bit-identical.
func TestClusterHeartbeatPartition(t *testing.T) {
	ref := serialRef(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tbl := testTable(t)
	var stats Stats
	var once sync.Once
	var proxy *Proxy
	opts := testOptions(&stats)
	opts.Shards = 3
	opts.DeadlineAfter = 400 * time.Millisecond
	var joined <-chan struct{}
	opts.Logf, joined = joinGate(t.Logf, "islanded")
	opts.OnTaskDone = func(completed int, _ sched.Task) {
		if completed == 6 {
			once.Do(proxy.Partition)
		}
	}
	addr, wait := startCoordinator(ctx, t, tbl, opts)
	var err error
	proxy, err = NewProxy(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	var wg sync.WaitGroup
	startWorker(ctx, t, &wg, addr, WorkerOptions{
		Name: "islanded",
		Dial: func(ctx context.Context, _ string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", proxy.Addr())
		},
	})
	awaitJoin(ctx, t, joined, "islanded")
	for w := 0; w < 2; w++ {
		startWorker(ctx, t, &wg, addr, WorkerOptions{Name: "mainland"})
	}
	if err := wait(); err != nil {
		t.Fatalf("Coordinate: %v", err)
	}
	cancel()
	wg.Wait()
	requireIdentical(t, ref, tbl)
	if stats.WorkerDeaths < 1 {
		t.Fatalf("partition was never declared a death: deaths=%d", stats.WorkerDeaths)
	}
}

// TestClusterCorruptionHeals runs workers that silently flip bits in
// sealed result blocks (seeded, deterministic per task and generation)
// and proves the coordinator detects every flip at install, heals the
// poisoned cone, and converges to the bit-identical answer.
func TestClusterCorruptionHeals(t *testing.T) {
	ref := serialRef(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tbl := testTable(t)
	var stats Stats
	opts := testOptions(&stats)
	opts.Shards = 2
	opts.Heal = true
	opts.Logf = t.Logf
	addr, wait := startCoordinator(ctx, t, tbl, opts)
	inject := &resilience.Injector{Rate: 0.25, Seed: 42, Kinds: []resilience.FaultKind{resilience.FaultCorrupt}}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		startWorker(ctx, t, &wg, addr, WorkerOptions{Name: "flaky", Inject: inject})
	}
	if err := wait(); err != nil {
		t.Fatalf("Coordinate: %v", err)
	}
	cancel()
	wg.Wait()
	requireIdentical(t, ref, tbl)
	if stats.SealMismatches < 1 || stats.HealRounds < 1 {
		t.Fatalf("no corruption was exercised: mismatches=%d healRounds=%d", stats.SealMismatches, stats.HealRounds)
	}
	if stats.RecomputedTasks < 1 {
		t.Fatalf("heal recomputed nothing")
	}
	t.Logf("mismatches=%d healRounds=%d recomputed=%d stale=%d",
		stats.SealMismatches, stats.HealRounds, stats.RecomputedTasks, stats.StaleResults)
}

// TestClusterAuditHeal corrupts an installed block on the coordinator
// itself — a bit flip in the authoritative table after its seal — so
// only the audit after the wave can find it. With Heal the ladder
// demotes the block's cone, tasks already done run again, and
// OnTaskDone still sees the monotone accept count; without Heal the
// audit's finding is the typed error.
func TestClusterAuditHeal(t *testing.T) {
	ref := serialRef(t)
	for _, heal := range []bool{true, false} {
		t.Run(fmt.Sprintf("heal=%v", heal), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			tbl := testTable(t)
			var stats Stats
			opts := testOptions(&stats)
			opts.Shards = 2
			opts.Heal = heal
			var calls []int
			installed, flipped := false, false
			opts.OnTaskDone = func(completed int, task sched.Task) {
				// The hook runs on the event loop, the table's only writer.
				calls = append(calls, completed)
				installed = installed || (task.Bi == 0 && task.Bj == 0)
				if completed >= 10 && installed && !flipped {
					flipped = true
					b := tbl.Block(0, 0)
					b[1] = math.Float32frombits(math.Float32bits(b[1]) ^ 1)
				}
			}
			addr, wait := startCoordinator(ctx, t, tbl, opts)
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				startWorker(ctx, t, &wg, addr, WorkerOptions{Name: "w"})
			}
			err := wait()
			cancel()
			wg.Wait()
			if !heal {
				var corrupt *resilience.CorruptionError
				if !errors.As(err, &corrupt) || len(corrupt.Blocks) != 1 || corrupt.Blocks[0] != [2]int{0, 0} {
					t.Fatalf("Heal off returned %v, want a CorruptionError naming block (0,0)", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Coordinate: %v", err)
			}
			requireIdentical(t, ref, tbl)
			if stats.SealMismatches != 1 || stats.HealRounds != 1 {
				t.Fatalf("mismatches=%d healRounds=%d, want 1/1", stats.SealMismatches, stats.HealRounds)
			}
			if stats.Accepted-stats.Tasks != stats.RecomputedTasks {
				t.Fatalf("accepted %d of %d tasks, but the heal recomputed %d", stats.Accepted, stats.Tasks, stats.RecomputedTasks)
			}
			for i, c := range calls {
				if c != i+1 {
					t.Fatalf("OnTaskDone call %d saw count %d, want %d (calls %v)", i+1, c, i+1, calls)
				}
			}
			if len(calls) != stats.Accepted {
				t.Fatalf("OnTaskDone ran %d times for %d accepts", len(calls), stats.Accepted)
			}
		})
	}
}

// TestClusterHealOffFailsTyped proves that with healing disabled the
// first corrupted boundary block aborts the run loudly with the typed
// *resilience.ErrSealMismatch carrying block identity and both digests.
func TestClusterHealOffFailsTyped(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tbl := testTable(t)
	var stats Stats
	opts := testOptions(&stats)
	opts.Heal = false
	addr, wait := startCoordinator(ctx, t, tbl, opts)
	inject := &resilience.Injector{Rate: 1, Seed: 7, Kinds: []resilience.FaultKind{resilience.FaultCorrupt}}
	var wg sync.WaitGroup
	startWorker(ctx, t, &wg, addr, WorkerOptions{Name: "saboteur", Inject: inject})
	err := wait()
	cancel()
	wg.Wait()
	if err == nil {
		t.Fatal("corrupted run with healing off returned nil")
	}
	var mismatch *resilience.ErrSealMismatch
	if !errors.As(err, &mismatch) {
		t.Fatalf("error is not a typed seal mismatch: %v", err)
	}
	if mismatch.Want == mismatch.Got {
		t.Fatalf("mismatch digests are equal: %08x", mismatch.Want)
	}
	if mismatch.TaskID < 0 || mismatch.Bi < 0 || mismatch.Bj < mismatch.Bi {
		t.Fatalf("mismatch lacks block identity: %+v", mismatch)
	}
}

// TestClusterHealExhaustionEscalates drives persistent corruption (every
// attempt of every task flips a bit) through a tiny heal budget and
// proves the ladder runs end to end: heal rounds, then exactly one
// pristine restart, then the typed CorruptionError.
func TestClusterHealExhaustionEscalates(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tbl := testTable(t)
	var stats Stats
	opts := testOptions(&stats)
	opts.Heal = true
	opts.HealAttempts = 2
	addr, wait := startCoordinator(ctx, t, tbl, opts)
	inject := &resilience.Injector{Rate: 1, Seed: 3, Kinds: []resilience.FaultKind{resilience.FaultCorrupt}}
	var wg sync.WaitGroup
	startWorker(ctx, t, &wg, addr, WorkerOptions{Name: "cursed", Inject: inject})
	err := wait()
	cancel()
	wg.Wait()
	if err == nil {
		t.Fatal("persistently corrupted run returned nil")
	}
	var corrupt *resilience.CorruptionError
	if !errors.As(err, &corrupt) {
		t.Fatalf("error is not a typed corruption error: %v", err)
	}
	if corrupt.Healed != 2 {
		t.Fatalf("CorruptionError.Healed = %d, want the full per-block budget 2", corrupt.Healed)
	}
	if stats.PristineRestarts != 1 {
		t.Fatalf("pristine restarts = %d, want exactly 1", stats.PristineRestarts)
	}
	// The budget is per block, so every ready block burns its own
	// HealAttempts rounds (twice: once per restart epoch) before the
	// escalation fires.
	if stats.HealRounds < 2 {
		t.Fatalf("heal rounds = %d, want at least the per-block budget 2", stats.HealRounds)
	}
}

// TestClusterFreshMismatchesDontExhaust pins the per-block heal budget:
// corruption spread across many blocks — each healing cleanly on its
// first recompute — must complete even when the number of detections
// far exceeds HealAttempts. A global budget would escalate to a
// pristine restart and then a CorruptionError here; the per-block
// budget never charges a first-time block.
func TestClusterFreshMismatchesDontExhaust(t *testing.T) {
	ref := serialRef(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tbl := testTable(t)
	var stats Stats
	opts := testOptions(&stats)
	opts.Heal = true
	opts.HealAttempts = 2
	addr, wait := startCoordinator(ctx, t, tbl, opts)
	// Rate 0.1 with this seed yields several first-time mismatches
	// across distinct blocks (6 at generation 0 alone) but no task
	// corrupt at three consecutive generations, so no per-block budget
	// of 2 can ever exhaust — only a global budget would.
	inject := &resilience.Injector{Rate: 0.1, Seed: 13, Kinds: []resilience.FaultKind{resilience.FaultCorrupt}}
	var wg sync.WaitGroup
	startWorker(ctx, t, &wg, addr, WorkerOptions{Name: "flaky", Inject: inject})
	if err := wait(); err != nil {
		t.Fatalf("Coordinate: %v", err)
	}
	cancel()
	wg.Wait()
	requireIdentical(t, ref, tbl)
	t.Logf("mismatches=%d healRounds=%d restarts=%d", stats.SealMismatches, stats.HealRounds, stats.PristineRestarts)
	if stats.HealRounds <= opts.HealAttempts {
		t.Fatalf("heal rounds = %d, want more than HealAttempts=%d to prove the budget is per block",
			stats.HealRounds, opts.HealAttempts)
	}
	if stats.PristineRestarts != 0 {
		t.Fatalf("pristine restarts = %d, want 0: every block healed within its own budget", stats.PristineRestarts)
	}
}

// TestClusterCheckpointResume interrupts a run mid-wavefront, then
// resumes from its checkpoint with fresh workers: the resumed run
// pre-completes checkpointed tasks and still converges bit-identically.
// A cancelled run commits every 3 accepts, or — at CheckpointEvery 0,
// which means 16 — not before the cancel; either way its final commit
// holds all 10 tasks it accepted. A run killed through Die commits
// nothing, as SIGKILL would. A third run resumes the final checkpoint
// with no workers at all and must finish instantly.
func TestClusterCheckpointResume(t *testing.T) {
	ref := serialRef(t)
	for _, c := range []struct {
		name  string
		every int
		die   bool
	}{
		{"every=3", 3, false},
		{"every=0", 0, false},
		{"died", 0, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "cluster.npsp")

			// Run 1: cancel (or kill) after 10 accepts.
			ctx1, cancel1 := context.WithCancel(context.Background())
			defer cancel1()
			tbl1 := testTable(t)
			var stats1 Stats
			var once sync.Once
			die := make(chan struct{})
			opts1 := testOptions(&stats1)
			opts1.CheckpointPath = ckpt
			opts1.CheckpointEvery = c.every
			if c.die {
				opts1.Die = die
			}
			opts1.OnTaskDone = func(completed int, _ sched.Task) {
				if completed == 10 {
					once.Do(func() {
						if c.die {
							close(die)
						} else {
							go cancel1()
						}
					})
				}
			}
			addr1, wait1 := startCoordinator(ctx1, t, tbl1, opts1)
			var wg1 sync.WaitGroup
			startWorker(ctx1, t, &wg1, addr1, WorkerOptions{Name: "w"})
			err := wait1()
			cancel1()
			wg1.Wait()
			want := context.Canceled
			if c.die {
				want = ErrDied
			}
			if !errors.Is(err, want) {
				t.Fatalf("interrupted run returned %v, want %v", err, want)
			}
			if c.die && stats1.Checkpoints != 0 {
				t.Fatalf("killed run wrote %d checkpoints, want none", stats1.Checkpoints)
			}
			if !c.die && stats1.Checkpoints < 1 {
				t.Fatalf("interrupted run wrote no checkpoints")
			}

			// Run 2: resume and finish.
			ctx2, cancel2 := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel2()
			tbl2 := testTable(t)
			var stats2 Stats
			opts2 := testOptions(&stats2)
			opts2.CheckpointPath = ckpt
			opts2.Resume = true
			opts2.Logf = t.Logf
			addr2, wait2 := startCoordinator(ctx2, t, tbl2, opts2)
			var wg2 sync.WaitGroup
			startWorker(ctx2, t, &wg2, addr2, WorkerOptions{Name: "w"})
			if err := wait2(); err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			cancel2()
			wg2.Wait()
			requireIdentical(t, ref, tbl2)
			if c.die && stats2.Resumed != 0 {
				t.Fatalf("resumed %d tasks after a kill that committed nothing", stats2.Resumed)
			}
			if !c.die && stats2.Resumed < 10 {
				t.Fatalf("resumed only %d tasks; the interrupted run accepted 10", stats2.Resumed)
			}
			if stats2.Resumed+stats2.Accepted != stats2.Tasks {
				t.Fatalf("resumed %d + accepted %d != %d tasks", stats2.Resumed, stats2.Accepted, stats2.Tasks)
			}

			// Run 3: the final checkpoint covers everything; no workers needed.
			ctx3, cancel3 := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel3()
			tbl3 := testTable(t)
			var stats3 Stats
			opts3 := testOptions(&stats3)
			opts3.CheckpointPath = ckpt
			opts3.Resume = true
			_, wait3 := startCoordinator(ctx3, t, tbl3, opts3)
			if err := wait3(); err != nil {
				t.Fatalf("fully-resumed run: %v", err)
			}
			requireIdentical(t, ref, tbl3)
			if stats3.Resumed != stats3.Tasks || stats3.Dispatched != 0 {
				t.Fatalf("full resume still dispatched work: resumed=%d/%d dispatched=%d", stats3.Resumed, stats3.Tasks, stats3.Dispatched)
			}
		})
	}
}

// TestClusterNoWorkers proves a workerless cluster fails loudly with the
// typed sentinel after the configured wait, never hanging.
func TestClusterNoWorkers(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tbl := testTable(t)
	opts := testOptions(nil)
	opts.WorkerlessAfter = 300 * time.Millisecond
	_, wait := startCoordinator(ctx, t, tbl, opts)
	err := wait()
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("workerless run returned %v, want ErrNoWorkers", err)
	}
}

// TestWorkerSurvivesTrickledDispatch pins the stream-integrity fix: a
// dispatch frame arriving in pieces, with gaps longer than several
// heartbeat periods between them, must never desync the worker's frame
// stream. The buggy shape this guards against: a heartbeat-period read
// deadline expiring after io.ReadFull consumed part of a frame, the
// partial bytes silently dropped, and the next read starting mid-frame.
func TestWorkerSurvivesTrickledDispatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	wdone := make(chan error, 1)
	go func() {
		wdone <- RunWorker(ctx, ln.Addr().String(), WorkerOptions{Name: "trickle", MaxReconnects: 1, Logf: t.Logf})
	}()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(25 * time.Second))
	if typ, _, err := readFrame(conn); err != nil || typ != frameHello {
		t.Fatalf("handshake = (%d, %v), want hello", typ, err)
	}
	bw := bufio.NewWriter(conn)
	welcome := welcomeMsg{
		ElemBytes: 4, N: 8, Tile: 4, SchedSide: 1, Shards: 1, Slot: 0,
		HeartbeatMS: 50, DeadlineMS: 2000,
	}
	if err := sendMsg(bw, frameWelcome, welcome.encode()); err != nil {
		t.Fatal(err)
	}
	// One real dispatch (task 0 has no operand blocks; the worker's
	// table, which tri.NewTiled fills with +Inf, is a valid input),
	// framed, then fed to the worker in two pieces: 3 bytes of header, a
	// pause spanning six heartbeat read slices, then the rest.
	var frame bytes.Buffer
	if err := writeFrame(&frame, frameDispatch, taskMsg{Gen: 0, TaskID: 0}.encode()); err != nil {
		t.Fatal(err)
	}
	raw := frame.Bytes()
	if _, err := conn.Write(raw[:3]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	if _, err := conn.Write(raw[3:]); err != nil {
		t.Fatal(err)
	}
	for {
		typ, payload, err := readFrame(conn)
		if err != nil {
			t.Fatalf("reading worker frames: %v", err)
		}
		if typ == framePing {
			continue
		}
		if typ != frameResult {
			f, _ := decodeFail(payload)
			t.Fatalf("worker sent frame type %d (%s), want result", typ, f.Reason)
		}
		msg, err := decodeTaskMsg(payload)
		if err != nil {
			t.Fatal(err)
		}
		if msg.TaskID != 0 || msg.Gen != 0 {
			t.Fatalf("result for (task %d, gen %d), want (0, 0)", msg.TaskID, msg.Gen)
		}
		break
	}
	if err := sendMsg(bw, frameDone, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-wdone; err != nil {
		t.Fatalf("worker exited %v after a trickled dispatch, want clean release", err)
	}
}

// sendMsg frames and flushes one message on a buffered writer.
func sendMsg(w *bufio.Writer, typ byte, payload []byte) error {
	if err := writeFrame(w, typ, payload); err != nil {
		return err
	}
	return w.Flush()
}

// whiteboxCoordinator builds coordinator state for a 4×4-block table
// over an in-memory store, with no listener, pool or event loop: the
// white-box tests drive its event-loop methods directly.
func whiteboxCoordinator(t *testing.T, epoch uint32) *coordinator[float32] {
	t.Helper()
	return whiteboxCoordinatorOf(t, tri.NewTiled[float32](16, 4), epoch)
}

// whiteboxCoordinatorOf is whiteboxCoordinator over the table tbl.
func whiteboxCoordinatorOf(t testing.TB, tbl *tri.Tiled[float32], epoch uint32) *coordinator[float32] {
	t.Helper()
	g, err := sched.NewGraph(tbl.Blocks(), 1)
	if err != nil {
		t.Fatal(err)
	}
	co := newCoordinator(tbl, Options{Logf: t.Logf, Epoch: epoch})
	co.store = npdp.NewMemStore(tbl, false)
	if err := co.lead(g, false); err != nil {
		t.Fatal(err)
	}
	return co
}

// pipeSession registers a live session over an in-memory pipe, as admit
// would but with no writer goroutine: its frames stay queued on out.
func pipeSession(t testing.TB, co *coordinator[float32], id int) *session[float32] {
	t.Helper()
	c1, c2 := net.Pipe()
	t.Cleanup(func() { c1.Close(); c2.Close() })
	sess := &session[float32]{
		id: id, name: fmt.Sprintf("w#%d", id), conn: c1,
		possess: make([]bool, co.t.Blocks()*(co.t.Blocks()+1)/2),
		out:     make(chan outFrame, 8),
	}
	co.sessions[sess] = struct{}{}
	return sess
}

// TestDeclareDeadBumpsGenerations pins the documented zombie defense:
// declaring a worker dead puts its in-flight requests back at the front
// of their FIFO, their next dispatch carries a higher generation, and a
// late result from the dead worker — or any replay of the old
// generation — is stale and never installs.
func TestDeclareDeadBumpsGenerations(t *testing.T) {
	co := whiteboxCoordinator(t, 0)
	zombie := pipeSession(t, co, 0)
	co.queues[0] = []int{0, 1} // two diagonal roots, dispatched at once
	co.fillAll()
	if co.inflight[0] != zombie || co.inflight[1] != zombie || co.gen[0] != 1 || co.gen[1] != 1 {
		t.Fatalf("setup: inflight=%v gen=%v, want both tasks dispatched once to the zombie", co.inflight, co.gen)
	}
	co.declareDead(zombie, errors.New("test kill"))
	if len(co.inflight) != 0 {
		t.Fatalf("%d tasks still marked in flight on a dead session", len(co.inflight))
	}
	if q := co.queues[0]; len(q) != 2 || q[0]+q[1] != 1 {
		t.Fatalf("queue after death = %v, want tasks 0 and 1 requeued", q)
	}
	if co.stats.Redispatched != 2 || co.stats.WorkerDeaths != 1 {
		t.Fatalf("stats = %+v, want 2 redispatched / 1 death", co.stats)
	}

	survivor := pipeSession(t, co, 1)
	co.fill(survivor)
	for range 2 {
		f := <-survivor.out
		msg, err := decodeTaskMsg(f.payload)
		if err != nil || f.typ != frameDispatch {
			t.Fatalf("survivor frame type %d: %v", f.typ, err)
		}
		if msg.Gen != 1 {
			t.Fatalf("task %d re-dispatched at generation %d, want 1 (above the zombie's 0)", msg.TaskID, msg.Gen)
		}
	}
	if err := co.handle(event[float32]{kind: evResult, sess: zombie, msg: taskMsg{TaskID: 0}}); err != nil {
		t.Fatal(err)
	}
	if err := co.install(survivor, taskMsg{TaskID: 1}); err != nil {
		t.Fatal(err)
	}
	if co.stats.StaleResults != 2 || co.stats.Accepted != 0 {
		t.Fatalf("stale=%d accepted=%d, want both generation-0 results dropped as stale", co.stats.StaleResults, co.stats.Accepted)
	}
	if co.inflight[0] != survivor || co.inflight[1] != survivor || len(co.replies[0])+len(co.replies[1]) != 0 {
		t.Fatal("a stale result disturbed the live dispatches")
	}
}

// allocPerOp runs op once to warm the frame pool, then n more times,
// and returns the bytes allocated per run.
func allocPerOp(n int, op func()) uint64 {
	op()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		op()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestDispatchBuildsFramesInPlace pins the coordinator's dispatch path:
// each block is encoded once, straight into a pooled frame, so with the
// queued frame handed back as writeLoop does, a dispatch of a task with
// eight operand blocks allocates less than one encoded block.
func TestDispatchBuildsFramesInPlace(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers on purpose")
	}
	co := whiteboxCoordinatorOf(t, testTable(t), 1)
	sess := pipeSession(t, co, 0)
	id, ok := co.g.TaskID(0, 4)
	if !ok {
		t.Fatal("no task at (0,4)")
	}
	ops := len(operandBlocks(co.g.Tasks[id]))
	if ops < 4 {
		t.Fatalf("task (0,4) has %d operand blocks, want >= 4", ops)
	}
	var f outFrame
	per := allocPerOp(100, func() {
		co.dispatch(sess, id)
		f = <-sess.out
		putFrame(f.buf)
		// Undo the dispatch so the next one streams every block again.
		delete(co.inflight, id)
		sess.inflight--
		clear(sess.possess)
	})
	blockBytes := uint64(4 * testTile * testTile)
	t.Logf("%d B allocated per dispatch of %d blocks (one block is %d B)", per, ops+1, blockBytes)
	if per >= blockBytes {
		t.Errorf("a dispatch allocates %d B, want < %d (one encoded block)", per, blockBytes)
	}
	co.dispatch(sess, id)
	f = <-sess.out
	msg, err := decodeTaskMsg(f.payload)
	if err != nil || f.typ != frameDispatch || len(msg.Blocks) != ops+1 {
		t.Fatalf("dispatch frame = (type %d, %d blocks, %v), want %d blocks", f.typ, len(msg.Blocks), err, ops+1)
	}
	for _, wb := range msg.Blocks {
		if want := resilience.BlockCRC(co.t.Block(wb.Bi, wb.Bj)); wb.CRC != want || resilience.RawCRC(wb.Raw) != want {
			t.Fatalf("block (%d,%d) sealed %08x, want %08x", wb.Bi, wb.Bj, wb.CRC, want)
		}
	}
}

// TestWorkerResultBuiltInPlace pins the worker's result path the same
// way: executing a dispatch into the session's reused result buffer
// allocates less than one encoded block.
func TestWorkerResultBuiltInPlace(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers on purpose")
	}
	co := whiteboxCoordinatorOf(t, testTable(t), 1)
	sess := pipeSession(t, co, 0)
	id, _ := co.g.TaskID(0, 4)
	co.dispatch(sess, id)
	msg, err := decodeTaskMsg((<-sess.out).payload)
	if err != nil {
		t.Fatal(err)
	}
	wt := tri.NewTiled[float32](testN, testTile)
	var result []byte
	per := allocPerOp(100, func() {
		if result, err = executeDispatch(wt, co.g, npdp.Stage1[float32](), msg, nil, result); err != nil {
			t.Fatal(err)
		}
	})
	blockBytes := uint64(4 * testTile * testTile)
	t.Logf("%d B allocated per executed dispatch (one block is %d B)", per, blockBytes)
	if per >= blockBytes {
		t.Errorf("executing a dispatch allocates %d B, want < %d (one encoded block)", per, blockBytes)
	}
	typ, payload, err := readFrame(bytes.NewReader(result))
	if err != nil || typ != frameResult {
		t.Fatalf("result frame = (type %d, %v)", typ, err)
	}
	back, err := decodeTaskMsg(payload)
	if err != nil || back.TaskID != id || len(back.Blocks) != 1 {
		t.Fatalf("result = (%+v, %v), want one block of task %d", back, err, id)
	}
	if wb := back.Blocks[0]; wb.CRC != resilience.BlockCRC(wt.Block(0, 4)) || resilience.RawCRC(wb.Raw) != wb.CRC {
		t.Fatalf("result block sealed %08x, want the digest of the computed block", wb.CRC)
	}
}

// TestConeAcrossShardCut pins the heal cone's behaviour at shard
// boundaries: seeding a corner task in the last column of one shard must
// enumerate its consumers in the next shard exactly once each, and the
// cone must equal the transitive successor closure.
func TestConeAcrossShardCut(t *testing.T) {
	g, err := sched.NewGraph(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSharding(g.SchedTiles, 2)
	_, cut := s.Cols(0) // first column owned by shard 1
	if cut <= 0 || cut >= g.SchedTiles {
		t.Fatalf("degenerate cut %d", cut)
	}
	// The corner task of shard 0: topmost row, last owned column.
	seed, ok := g.TaskID(0, cut-1)
	if !ok {
		t.Fatalf("no task at (0,%d)", cut-1)
	}
	cone := g.Cone([]int{seed})

	// Oracle: BFS over Succs from the seed.
	want := map[int]bool{seed: true}
	frontier := []int{seed}
	for len(frontier) > 0 {
		id := frontier[0]
		frontier = frontier[1:]
		for _, succ := range g.Tasks[id].Succs {
			if !want[succ] {
				want[succ] = true
				frontier = append(frontier, succ)
			}
		}
	}
	seen := make(map[int]int)
	remote := 0
	for _, id := range cone {
		seen[id]++
		if seen[id] > 1 {
			t.Fatalf("cone lists task %d more than once", id)
		}
		if !want[id] {
			t.Fatalf("cone includes task %d (block %d,%d), not a transitive successor",
				id, g.Tasks[id].Bi, g.Tasks[id].Bj)
		}
		if s.Of(g.Tasks[id].Bj) != 0 {
			remote++
		}
	}
	if len(cone) != len(want) {
		t.Fatalf("cone has %d tasks, closure has %d", len(cone), len(want))
	}
	if remote == 0 {
		t.Fatal("cone of a shard-corner task never crossed the cut")
	}
	// Every remote consumer in the next shard's first column appears
	// exactly once: count expected corner-rectangle members there.
	wantRemote := 0
	for _, task := range g.Tasks {
		if want[task.ID] && s.Of(task.Bj) != 0 {
			wantRemote++
		}
	}
	if remote != wantRemote {
		t.Fatalf("cone crossed the cut %d times, closure says %d", remote, wantRemote)
	}
}

// TestClusterPagedMatchesSerial runs the coordinator with its
// authoritative table paged out to a spill file under a memory budget
// well below the table footprint, kills a worker mid-wavefront, and
// proves the solve still converges bit-identically with real spill
// traffic (blocks written to and re-fetched from disk).
func TestClusterPagedMatchesSerial(t *testing.T) {
	ref := serialRef(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tbl := testTable(t)
	var stats Stats
	var once sync.Once
	var killVictim context.CancelFunc
	opts := testOptions(&stats)
	opts.Shards = 2
	opts.Logf = t.Logf
	// 8 resident frames for 36 memory blocks: most of the table lives
	// on disk for most of the solve.
	opts.MemoryBudget = 8 * (int64(testTile)*int64(testTile)*4 + 4)
	opts.OnTaskDone = func(completed int, _ sched.Task) {
		if completed == 8 {
			once.Do(func() { go killVictim() })
		}
	}
	addr, wait := startCoordinator(ctx, t, tbl, opts)
	var wg sync.WaitGroup
	killVictim = startWorker(ctx, t, &wg, addr, WorkerOptions{Name: "victim"})
	for w := 0; w < 2; w++ {
		startWorker(ctx, t, &wg, addr, WorkerOptions{Name: "survivor"})
	}
	if err := wait(); err != nil {
		t.Fatalf("Coordinate (paged): %v", err)
	}
	cancel()
	wg.Wait()
	requireIdentical(t, ref, tbl)
	if stats.WorkerDeaths < 1 {
		t.Fatalf("kill was never observed: deaths=%d", stats.WorkerDeaths)
	}
	if stats.PagerStats == nil {
		t.Fatal("paged run exported no pager stats")
	}
	if stats.PagerStats.SpilledBlocks == 0 || stats.PagerStats.FetchedBlocks == 0 {
		t.Errorf("budget below footprint but no spill traffic: %+v", *stats.PagerStats)
	}
	t.Logf("paged cluster: spilled=%d fetched=%d resident_peak=%d",
		stats.PagerStats.SpilledBlocks, stats.PagerStats.FetchedBlocks, stats.PagerStats.ResidentPeak)
}

// TestClusterPagedCorruptionHeals runs the corruption heal over the
// paged authoritative table: every cone heal demotes through the pager
// between waves, and the solve still converges bit-identically with
// real spill traffic.
func TestClusterPagedCorruptionHeals(t *testing.T) {
	ref := serialRef(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tbl := testTable(t)
	var stats Stats
	opts := testOptions(&stats)
	opts.Shards = 2
	opts.Heal = true
	opts.Logf = t.Logf
	opts.MemoryBudget = 8 * (int64(testTile)*int64(testTile)*4 + 4)
	addr, wait := startCoordinator(ctx, t, tbl, opts)
	inject := &resilience.Injector{Rate: 0.25, Seed: 42, Kinds: []resilience.FaultKind{resilience.FaultCorrupt}}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		startWorker(ctx, t, &wg, addr, WorkerOptions{Name: "flaky", Inject: inject})
	}
	if err := wait(); err != nil {
		t.Fatalf("Coordinate (paged): %v", err)
	}
	cancel()
	wg.Wait()
	requireIdentical(t, ref, tbl)
	if stats.SealMismatches < 1 || stats.HealRounds < 1 {
		t.Fatalf("no corruption was exercised: mismatches=%d healRounds=%d", stats.SealMismatches, stats.HealRounds)
	}
	ps := stats.PagerStats
	if ps == nil || ps.SpilledBlocks == 0 || ps.FetchedBlocks == 0 {
		t.Fatalf("budget below footprint but no spill traffic: %+v", ps)
	}
	t.Logf("mismatches=%d healRounds=%d spilled=%d fetched=%d",
		stats.SealMismatches, stats.HealRounds, ps.SpilledBlocks, ps.FetchedBlocks)
}

// TestClusterPagedRejectsBadCombos pins the paged-mode option fence —
// Resume needs a checkpoint — and that the combinations it no longer
// fences solve: a budget alone pages through a private scratch spill,
// and a budget with a checkpoint keeps it in the spill file, which a
// run interrupted after 10 accepts leaves for a resume that finishes
// bit-identically.
func TestClusterPagedRejectsBadCombos(t *testing.T) {
	ref := serialRef(t)
	budget := 8 * (int64(testTile)*int64(testTile)*4 + 4)
	ckpt := filepath.Join(t.TempDir(), "cluster.npsp")
	for _, tc := range []struct {
		name string
		mut  func(*Options)
		want string // empty: the run must solve bit-identically
	}{
		{"spill+checkpoint", func(o *Options) { o.MemoryBudget = budget; o.CheckpointPath = ckpt }, ""},
		{"budget-without-spill", func(o *Options) { o.MemoryBudget = budget }, ""},
		{"spill+resume", func(o *Options) { o.MemoryBudget = budget; o.Resume = true }, "Resume requires CheckpointPath"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			opts := testOptions(nil)
			tc.mut(&opts)
			if tc.want != "" {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer ln.Close()
				err = Coordinate(ctx, ln, testTable(t), opts)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("error %v, want substring %q", err, tc.want)
				}
				return
			}
			if opts.CheckpointPath != "" {
				// Interrupt a first run after 10 accepts; the resume below
				// must start from its checkpoint.
				ctx1, cancel1 := context.WithCancel(ctx)
				first := opts
				first.CheckpointEvery = 3
				first.OnTaskDone = func(completed int, _ sched.Task) {
					if completed == 10 {
						go cancel1()
					}
				}
				addr, wait := startCoordinator(ctx1, t, testTable(t), first)
				var wg sync.WaitGroup
				startWorker(ctx1, t, &wg, addr, WorkerOptions{Name: "w"})
				if err := wait(); !errors.Is(err, context.Canceled) {
					t.Fatalf("interrupted run returned %v, want context.Canceled", err)
				}
				cancel1()
				wg.Wait()
				opts.Resume = true
			}
			var stats Stats
			opts.Stats = &stats
			tbl := testTable(t)
			addr, wait := startCoordinator(ctx, t, tbl, opts)
			var wg sync.WaitGroup
			startWorker(ctx, t, &wg, addr, WorkerOptions{Name: "w"})
			if err := wait(); err != nil {
				t.Fatalf("Coordinate: %v", err)
			}
			cancel()
			wg.Wait()
			requireIdentical(t, ref, tbl)
			if ps := stats.PagerStats; ps == nil || ps.SpilledBlocks == 0 {
				t.Fatalf("budget below footprint but no spill traffic: %+v", ps)
			}
			if opts.Resume && stats.Resumed < 10 {
				t.Fatalf("resumed %d tasks; the interrupted run accepted 10", stats.Resumed)
			}
		})
	}
}

// TestClusterResumeRejectsGeometryMismatch is the cluster twin of the
// root package's: a resume against a checkpoint of another problem size,
// or against no checkpoint at all, fails before anything is written, and
// leaves the checkpoint byte for byte as it was.
func TestClusterResumeRejectsGeometryMismatch(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ckpt := filepath.Join(t.TempDir(), "cluster.npsp")
	opts := testOptions(nil)
	opts.CheckpointPath = ckpt
	addr, wait := startCoordinator(ctx, t, testTable(t), opts)
	var wg sync.WaitGroup
	startWorker(ctx, t, &wg, addr, WorkerOptions{Name: "w"})
	if err := wait(); err != nil {
		t.Fatalf("Coordinate: %v", err)
	}
	read := func() []byte {
		t.Helper()
		data, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := os.ReadFile(ckpt + ".idx")
		if err != nil {
			t.Fatal(err)
		}
		return append(data, idx...)
	}
	before := read()
	missing := filepath.Join(t.TempDir(), "none.npsp")
	for _, path := range []string{ckpt, missing} {
		// A worker stands by, so a coordinator that ignored the mismatch
		// would solve from zero and commit over the checkpoint.
		resume := testOptions(nil)
		resume.CheckpointPath, resume.Resume = path, true
		other := tri.ToTiled(workload.Chain[float32](testN-testTile, testSeed), testTile)
		addr, wait := startCoordinator(ctx, t, other, resume)
		wctx, wcancel := context.WithCancel(ctx)
		startWorker(wctx, t, &wg, addr, WorkerOptions{Name: "w", MaxReconnects: 1})
		err := wait()
		wcancel()
		if err == nil {
			t.Fatalf("resume against %s accepted", filepath.Base(path))
		}
		t.Logf("resume against %s: %v", filepath.Base(path), err)
	}
	cancel()
	wg.Wait()
	if !bytes.Equal(read(), before) {
		t.Fatal("a refused resume changed the checkpoint")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatalf("a refused resume created %s (stat: %v)", filepath.Base(missing), err)
	}
}

// countingListener counts the connections its listener has accepted.
type countingListener struct {
	net.Listener
	accepted atomic.Int32
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// TestLateHelloIsClosed sends worker hellos, after Coordinate returned,
// on connections the coordinator accepted mid-solve. Each must be
// answered or closed at once: post may leave a hello's event in the
// buffer the stopped event loop no longer reads, and the accept path
// must close it then, or the worker waits out its handshake timeout.
// Eight connections make a leak on any of them near certain.
func TestLateHelloIsClosed(t *testing.T) {
	ref := serialRef(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	tbl := testTable(t)
	errc := make(chan error, 1)
	go func() { errc <- Coordinate(ctx, cl, tbl, testOptions(nil)) }()
	late := make([]net.Conn, 8)
	for i := range late {
		if late[i], err = net.Dial("tcp", ln.Addr().String()); err != nil {
			t.Fatal(err)
		}
		defer late[i].Close()
	}
	for cl.accepted.Load() < int32(len(late)) {
		time.Sleep(time.Millisecond)
	}
	var wg sync.WaitGroup
	startWorker(ctx, t, &wg, ln.Addr().String(), WorkerOptions{Name: "w", Logf: t.Logf})
	if err := <-errc; err != nil {
		t.Fatalf("Coordinate: %v", err)
	}
	cancel()
	wg.Wait()
	requireIdentical(t, ref, tbl)
	for i, c := range late {
		if err := writeFrame(c, frameHello, helloMsg{Name: fmt.Sprintf("late%d", i)}.encode()); err != nil {
			t.Fatalf("late hello %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(time.Second)
	for i, c := range late {
		c.SetReadDeadline(deadline)
		typ, _, err := readFrame(c)
		if err == nil && typ != frameFail || err != nil && !errors.Is(err, io.EOF) {
			t.Errorf("late hello %d: reply = (%d, %v), want EOF or a fail frame within 1s", i, typ, err)
		}
	}
}
