package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
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

// failoverN sizes the chaos workloads: large enough that a kill keyed
// on replicated progress genuinely lands mid-wavefront, with most of
// the solve still to run (the testN workload's 36 tasks finish within
// milliseconds and the race never opens).
const failoverN = 768

// failoverTile is deliberately small (48×48 block lattice, 1176 tasks)
// so the post-takeover solve has enough runway for chaos injected AFTER
// the failover — a worker kill, a fenced split-brain write — to land
// while the wavefront is still in flight.
const failoverTile = 16

// failoverRef solves the failover workload serially — the oracle.
func failoverRef(t *testing.T) *tri.RowMajor[float32] {
	t.Helper()
	m := workload.Chain[float32](failoverN, testSeed)
	npdp.SolveSerial(m)
	return m
}

// failoverTable builds the failover workload's tiled input.
func failoverTable(t *testing.T) *tri.Tiled[float32] {
	t.Helper()
	return tri.ToTiled(workload.Chain[float32](failoverN, testSeed), failoverTile)
}

// failoverWorkerOptions are worker options tuned for failover tests: a
// generous reconnect budget, a short handshake timeout so a blackholed
// address is abandoned quickly, and a low backoff ceiling so the
// rotation reaches the live leader within a lease period.
func failoverWorkerOptions(name string) WorkerOptions {
	return WorkerOptions{
		Name:             name,
		MaxReconnects:    60,
		HandshakeTimeout: time.Second,
		Reconnect: resilience.RetryPolicy{
			BaseDelay: 25 * time.Millisecond,
			MaxDelay:  250 * time.Millisecond,
			Jitter:    true,
		},
	}
}

// TestFailoverMidWavefront is the tentpole chaos test: a primary
// replicating to a warm standby is killed silently (the Die channel, the
// in-process SIGKILL) mid-wavefront, after the standby has replicated a
// quarter of the tasks; the standby's lease expires, it takes over at
// epoch 2, the workers re-home through their address rotation, one
// worker is ALSO killed after takeover (worker-death chaos riding along),
// and the resumed solve still finishes bit-identical to SolveSerial. The
// primary runs at testOptions' heartbeat: records reach the standby as
// they are installed, so the kill gate opens whatever the ping period.
func TestFailoverMidWavefront(t *testing.T) {
	ref := failoverRef(t)
	blocks := failoverN / failoverTile
	killAt := blocks * (blocks + 1) / 2 / 4 // 294 of the 1176 tasks
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	sbLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sbTbl := failoverTable(t)
	var tstats Stats
	var sstats StandbyStats
	die := make(chan struct{})
	var dieOnce sync.Once

	sbOpts := StandbyOptions{
		Options:    testOptions(&tstats),
		LeaseAfter: 700 * time.Millisecond,
		OnDelta: func(done int) {
			// The kill is keyed on REPLICATED progress, not primary
			// progress, so the takeover provably resumes mid-wavefront
			// with real state instead of restarting from zero.
			if done >= killAt {
				dieOnce.Do(func() { close(die) })
			}
		},
		StandbyStats: &sstats,
	}
	sbOpts.Shards = 2
	sbOpts.Logf = t.Logf
	sbErr := make(chan error, 1)
	go func() { sbErr <- RunStandby(ctx, sbLn, sbTbl, sbOpts) }()

	priTbl := failoverTable(t)
	var pstats Stats
	pOpts := testOptions(&pstats)
	pOpts.Shards = 2
	pOpts.Logf = t.Logf
	pOpts.ReplicaAddr = sbLn.Addr().String()
	pOpts.Die = die
	priAddr, priWait := startCoordinator(ctx, t, priTbl, pOpts)

	addrs := priAddr + "," + sbLn.Addr().String()
	var wg sync.WaitGroup
	// The victim's kill fires at its first dispatch from the NEW leader —
	// the standby's address only ever dispatches after takeover — before
	// the victim reads the task. The takeover coordinator then holds that
	// task in flight for a dead session and cannot finish without
	// declaring the death, so it provably absorbs a worker death of its
	// own, however fast the resumed solve runs.
	dispatched := make(chan struct{})
	var dispatchOnce sync.Once
	vopts := failoverWorkerOptions("victim")
	// Near-continuous redial: the victim must re-home early enough after
	// takeover to be dispatched a task at all.
	vopts.Reconnect.BaseDelay = 2 * time.Millisecond
	vopts.Reconnect.MaxDelay = 15 * time.Millisecond
	vopts.MaxReconnects = 2000
	vopts.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, "tcp", addr)
		if err != nil || addr != sbLn.Addr().String() {
			return c, err
		}
		return &dispatchTap{Conn: c, onDispatch: func() { dispatchOnce.Do(func() { close(dispatched) }) }}, nil
	}
	killVictim := startWorker(ctx, t, &wg, addrs, vopts)
	go func() {
		select {
		case <-dispatched:
			killVictim()
		case <-ctx.Done():
		}
	}()
	for w := 0; w < 2; w++ {
		startWorker(ctx, t, &wg, addrs, failoverWorkerOptions("survivor"))
	}

	if err := priWait(); !errors.Is(err, ErrDied) {
		t.Fatalf("killed primary returned %v, want ErrDied", err)
	}
	select {
	case err := <-sbErr:
		if err != nil {
			t.Fatalf("standby/takeover run: %v", err)
		}
	case <-time.After(90 * time.Second):
		t.Fatal("standby did not finish within 90s")
	}
	cancel()
	wg.Wait()

	requireIdentical(t, ref, sbTbl)
	if !sstats.TookOver || sstats.Epoch != 2 {
		t.Fatalf("standby stats = %+v, want a takeover at epoch 2", sstats)
	}
	if sstats.ReplicatedTasks < killAt {
		t.Fatalf("takeover resumed from %d replicated tasks, want >= %d (the kill gate)", sstats.ReplicatedTasks, killAt)
	}
	if tstats.Failovers != 1 || tstats.Epoch != 2 {
		t.Fatalf("takeover coordinator stats failovers=%d epoch=%d, want 1 and 2", tstats.Failovers, tstats.Epoch)
	}
	if tstats.Resumed < killAt {
		t.Fatalf("takeover pre-completed %d tasks from the replica, want >= %d", tstats.Resumed, killAt)
	}
	if tstats.Resumed+tstats.Accepted != tstats.Tasks {
		t.Fatalf("resumed %d + accepted %d != %d tasks", tstats.Resumed, tstats.Accepted, tstats.Tasks)
	}
	if tstats.WorkerDeaths < 1 {
		t.Fatalf("post-takeover worker kill was never observed: deaths=%d", tstats.WorkerDeaths)
	}
	t.Logf("takeover: resumed=%d accepted=%d deaths=%d replRecords(primary)=%d",
		tstats.Resumed, tstats.Accepted, tstats.WorkerDeaths, pstats.ReplRecords)
}

// dispatchTap follows the frame stream a worker reads and, at the first
// dispatch frame header, calls onDispatch and severs the connection
// before the worker sees the frame — a kill that lands while the task is
// in flight.
type dispatchTap struct {
	net.Conn
	onDispatch func()
	hdr        [5]byte // frame kind + payload length
	have       int     // header bytes seen
	skip       int     // payload and checksum bytes left in this frame
}

func (c *dispatchTap) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	for b := p[:n]; len(b) > 0; {
		if c.skip > 0 {
			k := min(c.skip, len(b))
			c.skip, b = c.skip-k, b[k:]
			continue
		}
		k := copy(c.hdr[c.have:], b)
		c.have, b = c.have+k, b[k:]
		if c.have == len(c.hdr) {
			c.have, c.skip = 0, int(binary.LittleEndian.Uint32(c.hdr[1:]))+4
			if c.hdr[0] == frameDispatch {
				c.onDispatch()
				c.Conn.Close()
				return 0, net.ErrClosed
			}
		}
	}
	return n, err
}

// TestFailoverPrimaryFinishesClean pins the no-fault HA path: the
// primary finishes normally, delivers its last records and the done
// frame, and the standby returns nil WITHOUT taking over — holding the
// complete solved table, bit-identical to SolveSerial, built from delta
// records alone. The primary's replication counters match what the
// standby applied, snapshot records included.
func TestFailoverPrimaryFinishesClean(t *testing.T) {
	ref := serialRef(t)
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	sbLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sbTbl := testTable(t)
	var tstats Stats
	var sstats StandbyStats
	sbOpts := StandbyOptions{Options: testOptions(&tstats), StandbyStats: &sstats}
	sbOpts.Logf = t.Logf
	sbErr := make(chan error, 1)
	go func() { sbErr <- RunStandby(ctx, sbLn, sbTbl, sbOpts) }()

	priTbl := testTable(t)
	var pstats Stats
	pOpts := testOptions(&pstats)
	pOpts.Logf = t.Logf
	pOpts.ReplicaAddr = sbLn.Addr().String()
	priAddr, priWait := startCoordinator(ctx, t, priTbl, pOpts)

	var wg sync.WaitGroup
	startWorker(ctx, t, &wg, priAddr, WorkerOptions{Name: "w"})

	if err := priWait(); err != nil {
		t.Fatalf("primary: %v", err)
	}
	select {
	case err := <-sbErr:
		if err != nil {
			t.Fatalf("standby returned %v, want nil on a clean primary finish", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("standby did not release after the primary finished")
	}
	cancel()
	wg.Wait()

	if sstats.TookOver {
		t.Fatal("standby took over a healthy primary")
	}
	if sstats.ReplicatedTasks != pstats.Tasks {
		t.Fatalf("standby replicated %d of %d tasks at release", sstats.ReplicatedTasks, pstats.Tasks)
	}
	// The strongest check in the file: the standby's table was built
	// exclusively from streamed rdone records, and must still be
	// bit-identical to the serial oracle.
	requireIdentical(t, ref, sbTbl)
	requireIdentical(t, ref, priTbl)
	if pstats.ReplRecords != sstats.Records || pstats.ReplResyncs != sstats.Resyncs {
		t.Fatalf("primary sent %d records in %d resyncs, standby applied %d in %d",
			pstats.ReplRecords, pstats.ReplResyncs, sstats.Records, sstats.Resyncs)
	}
}

// TestSplitBrainFencedWrites is the partition adversary: the old primary
// is blackholed (via proxies) but NEVER killed. The standby's lease
// expires and it takes over at epoch 2; when the partition heals, the
// deposed primary's replication stream reconnects — into the new leader
// — and must be fenced without landing a single write. The primary's run
// ends with the typed *ErrEpochFenced, the new leader's fenced-write
// counter increments, and the solve still finishes bit-identical.
func TestSplitBrainFencedWrites(t *testing.T) {
	ref := failoverRef(t)
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	sbLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sbTbl := failoverTable(t)

	// The primary reaches its standby through this relay; blackholing it
	// starves the lease without any EOF.
	replProxy, err := NewProxy(sbLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer replProxy.Close()

	var tstats Stats
	var sstats StandbyStats
	// The lease starts when the standby reads the primary's replication
	// hello; a partition before that leaves nobody to take over. The
	// first applied record comes after the hello, so the cutoff waits
	// for it.
	replicated := make(chan struct{})
	var replOnce sync.Once
	sbOpts := StandbyOptions{
		Options:    testOptions(&tstats),
		LeaseAfter: 800 * time.Millisecond,
		OnDelta:    func(int) { replOnce.Do(func() { close(replicated) }) },
		OnTakeover: func(uint32) {
			// Heal the replication path the moment leadership changes, so
			// the zombie primary's stream can find the new leader and be
			// fenced — the split-brain write this test exists to stop.
			replProxy.Heal()
		},
		StandbyStats: &sstats,
	}
	sbOpts.Logf = t.Logf
	sbErr := make(chan error, 1)
	go func() { sbErr <- RunStandby(ctx, sbLn, sbTbl, sbOpts) }()

	priTbl := failoverTable(t)
	var pstats Stats
	var once sync.Once
	var cutoff func()
	pOpts := testOptions(&pstats)
	pOpts.Logf = t.Logf
	// The primary must survive its own isolation long enough to be
	// fenced, not die of worker starvation first.
	pOpts.WorkerlessAfter = 60 * time.Second
	pOpts.ReplicaAddr = replProxy.Addr()
	pOpts.OnTaskDone = func(completed int, _ sched.Task) {
		if completed == 30 {
			once.Do(func() { go cutoff() })
		}
	}
	priAddr, priWait := startCoordinator(ctx, t, priTbl, pOpts)

	// Workers reach the primary through their own relay, so the same
	// cutoff blackholes them too — the primary keeps running, hearing
	// nothing, killing nothing.
	workProxy, err := NewProxy(priAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer workProxy.Close()
	cutoff = func() {
		select {
		case <-replicated:
		case <-ctx.Done():
			return
		}
		workProxy.Partition()
		replProxy.Partition()
	}

	addrs := workProxy.Addr() + "," + sbLn.Addr().String()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		startWorker(ctx, t, &wg, addrs, failoverWorkerOptions("w"))
	}

	select {
	case err := <-sbErr:
		if err != nil {
			t.Fatalf("standby/takeover run: %v", err)
		}
	case <-time.After(90 * time.Second):
		t.Fatal("takeover run did not finish within 90s")
	}
	requireIdentical(t, ref, sbTbl)

	err = priWait()
	var fenced *ErrEpochFenced
	if !errors.As(err, &fenced) {
		t.Fatalf("blackholed primary returned %v, want *ErrEpochFenced", err)
	}
	if fenced.Epoch != 1 || fenced.Current != 2 {
		t.Fatalf("fence carries epochs %d/%d, want deposed 1, current 2", fenced.Epoch, fenced.Current)
	}
	cancel()
	wg.Wait()

	if !sstats.TookOver || sstats.Epoch != 2 {
		t.Fatalf("standby stats = %+v, want a takeover at epoch 2", sstats)
	}
	if tstats.FencedWrites < 1 {
		t.Fatalf("new leader fenced %d writes, want >= 1 (the zombie's replication hello)", tstats.FencedWrites)
	}
	t.Logf("fenced=%d resumed=%d accepted=%d", tstats.FencedWrites, tstats.Resumed, tstats.Accepted)
}

// TestTakeoverAnswersHellosAcceptedBefore pins the one accept path
// across the takeover: connections the standby accepted while it was
// following, whose hellos arrive only after it leads, are answered by
// the leader — a deposed primary's replication hello is fenced at the
// new epoch and a worker is welcomed at it.
func TestTakeoverAnswersHellosAcceptedBefore(t *testing.T) {
	tookOver := make(chan struct{})
	p := startFollowerProbe(t, 400*time.Millisecond, func(uint32) { close(tookOver) })
	// The primary replicates one resync, then goes silent.
	c := p.adopt(t, 1)
	send(t, c, newRecord(frameReplSync, 1, 0).b)
	p.delta(t)
	repl, worker := p.dial(t), p.dial(t)
	select {
	case <-tookOver:
	case <-time.After(10 * time.Second):
		t.Fatal("the lease never expired")
	}
	sendReplHello(t, repl, 1, fixtureJob(1))
	if err := writeFrame(worker, frameHello, helloMsg{Name: "late"}.encode()); err != nil {
		t.Fatal(err)
	}
	t.Run("replication-hello", func(t *testing.T) {
		repl.SetReadDeadline(time.Now().Add(2 * time.Second))
		if got := expectEpoch(t, repl, frameFenced); got != 2 {
			t.Fatalf("the deposed primary's hello was fenced at epoch %d, want 2", got)
		}
	})
	t.Run("worker-hello", func(t *testing.T) {
		worker.SetReadDeadline(time.Now().Add(2 * time.Second))
		w, err := decodeWelcome(expectFrame(t, worker, frameWelcome))
		if err != nil || w.Epoch != 2 {
			t.Fatalf("worker welcome = (%+v, %v), want epoch 2", w, err)
		}
	})
}

// TestInstallEpochFence pins the install-side fence point with direct
// coordinator state: a result sealed under another leader's epoch —
// whether a pre-failover replay (stale) or a forged future epoch — is
// dropped before the generation logic runs, counts as a fenced write,
// and releases no pipeline slot. A same-epoch stale-generation result
// still takes the stale path, not the fence.
func TestInstallEpochFence(t *testing.T) {
	co := whiteboxCoordinator(t, 2)
	sess := pipeSession(t, co, 0)
	co.inflight[0] = sess
	co.gen[0] = 6 // the dispatch in flight carried generation 5
	sess.inflight = 1

	check := func(step string, wantFenced, wantStale int) {
		t.Helper()
		if co.stats.FencedWrites != wantFenced || co.stats.StaleResults != wantStale {
			t.Fatalf("%s: fenced=%d stale=%d, want %d/%d", step, co.stats.FencedWrites, co.stats.StaleResults, wantFenced, wantStale)
		}
		if co.inflight[0] != sess || sess.inflight != 1 || len(co.replies[0]) != 0 {
			t.Fatalf("%s: dispatch disturbed (inflight=%d, answered=%d)", step, sess.inflight, len(co.replies[0]))
		}
		if co.stats.Accepted != 0 {
			t.Fatalf("%s: a rejected result was installed", step)
		}
	}

	// A pre-failover result replayed at the new leader: right task,
	// right generation, stale epoch.
	if err := co.install(sess, taskMsg{Epoch: 1, Gen: 5, TaskID: 0}); err != nil {
		t.Fatalf("stale-epoch install: %v", err)
	}
	check("stale epoch", 1, 0)

	// A forged frame from the future is equally not ours to install.
	if err := co.install(sess, taskMsg{Epoch: 3, Gen: 5, TaskID: 0}); err != nil {
		t.Fatalf("future-epoch install: %v", err)
	}
	check("future epoch", 2, 0)

	// Same epoch, stale generation: the stale path, distinct counter.
	if err := co.install(sess, taskMsg{Epoch: 2, Gen: 4, TaskID: 0}); err != nil {
		t.Fatalf("stale-gen install: %v", err)
	}
	check("stale generation", 2, 1)
}

// standbyResponder is a fake never-leading standby: it answers every
// worker hello with the retryable standby frame and closes.
func standbyResponder(t *testing.T) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				c.SetDeadline(time.Now().Add(10 * time.Second))
				if typ, _, err := readFrame(c); err != nil || typ != frameHello {
					return
				}
				writeFrame(c, frameStandby, nil)
			}(c)
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

// TestWorkerBackoffCarriesAcrossTargets pins the satellite fix: a worker
// rotating between two coordinators that both refuse to lead keeps ONE
// consecutive-failure count, so its backoff keeps doubling across the
// address switches instead of restarting at the base on every new
// target — the hot-loop a flapping pair could otherwise sustain. The
// injected Sleep seam makes the schedule exactly Backoff(1..budget).
func TestWorkerBackoffCarriesAcrossTargets(t *testing.T) {
	a1, stop1 := standbyResponder(t)
	defer stop1()
	a2, stop2 := standbyResponder(t)
	defer stop2()

	var slept []time.Duration
	policy := resilience.RetryPolicy{
		BaseDelay: 10 * time.Millisecond,
		Jitter:    false,
		Sleep:     func(d time.Duration) { slept = append(slept, d) },
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := RunWorker(ctx, a1+" , "+a2, WorkerOptions{
		Name:          "flapper",
		MaxReconnects: 2, // budget = 2 per address × 2 addresses = 4
		Reconnect:     policy,
	})
	if err == nil || !strings.Contains(err.Error(), "reconnect budget") {
		t.Fatalf("flapping pair returned %v, want a budget-exhausted error", err)
	}
	if len(slept) != 4 {
		t.Fatalf("worker slept %d times (%v), want 4 (the whole budget)", len(slept), slept)
	}
	for i, d := range slept {
		if want := policy.Backoff(i + 1); d != want {
			t.Fatalf("sleep %d = %v, want %v: the failure count restarted across a target switch", i+1, d, want)
		}
	}
}

// TestWorkerRefusesDeposedLeader pins the worker half of the split-brain
// fence: a worker that has been welcomed at epoch 3 refuses a welcome
// from an epoch-1 coordinator (a deposed leader still answering its
// door) with the typed rejection, before computing anything.
func TestWorkerRefusesDeposedLeader(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c2.SetDeadline(time.Now().Add(10 * time.Second))
		typ, payload, err := readFrame(c2)
		if err != nil || typ != frameHello {
			t.Errorf("handshake = (%d, %v), want hello", typ, err)
			return
		}
		h, err := decodeHello(payload)
		if err != nil || h.Epoch != 3 {
			t.Errorf("hello advertises epoch %d (%v), want the worker's highest (3)", h.Epoch, err)
			return
		}
		w := welcomeMsg{ElemBytes: 4, N: 8, Tile: 4, SchedSide: 1, Shards: 1,
			HeartbeatMS: 50, DeadlineMS: 2000, Epoch: 1}
		writeFrame(c2, frameWelcome, w.encode())
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	highest := uint32(3)
	outcome, err := runSession(ctx, c1, WorkerOptions{
		Name: "fencer", HandshakeTimeout: 5 * time.Second,
		Logf: func(string, ...any) {},
	}, &highest)
	<-done
	if outcome != sessRejected {
		t.Fatalf("outcome = %d, want sessRejected", outcome)
	}
	var fenced *ErrEpochFenced
	if !errors.As(err, &fenced) || fenced.Epoch != 1 || fenced.Current != 3 {
		t.Fatalf("error = %v, want *ErrEpochFenced{1, 3}", err)
	}
	if highest != 3 {
		t.Fatalf("highest epoch regressed to %d", highest)
	}
}

// TestVersionMismatchFailsFast pins the satellite: both sides of a
// protocol version skew fail loudly and terminally — no reconnect loop
// against a build that can never match.
func TestVersionMismatchFailsFast(t *testing.T) {
	// oldHello is a hello at protocol version v; a replication hello is
	// one followed by a welcome of the replicaFixture geometry.
	oldHello := func(v uint16, repl bool) []byte {
		hello := helloMsg{Name: "old"}.encode()
		binary.LittleEndian.PutUint16(hello[4:], v)
		if repl {
			hello = append(hello, fixtureJob(1).encode()...)
		}
		return hello
	}
	// rejects sends a version-skewed hello of kind typ to addr for each
	// old version and wants a reasoned fail frame naming that version.
	// Version 1 is an archaic build; a version-2 build still expects the
	// stage-1 kernel byte in the welcome; a version-3 build speaks the
	// NPKD replication stream.
	rejects := func(t *testing.T, addr string, typ byte) {
		t.Helper()
		for _, v := range []uint16{1, 2, 3} {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			if err := writeFrame(conn, typ, oldHello(v, typ == frameReplHello)); err != nil {
				t.Fatal(err)
			}
			got, payload, err := readFrame(conn)
			if err != nil || got != frameFail {
				t.Fatalf("version %d: reply = (%d, %v), want a reasoned fail frame", v, got, err)
			}
			f, _ := decodeFail(payload)
			if !strings.Contains(f.Reason, fmt.Sprintf("protocol version %d,", v)) {
				t.Fatalf("version %d: rejection reason %q does not name the version skew", v, f.Reason)
			}
		}
	}
	// leader is a coordinator with no workers that waits longer than any
	// subtest.
	leader := func(t *testing.T) string {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		opts := testOptions(nil)
		opts.WorkerlessAfter = 10 * time.Second
		addr, _ := startCoordinator(ctx, t, testTable(t), opts)
		return addr
	}
	t.Run("coordinator-rejects-old-worker", func(t *testing.T) {
		rejects(t, leader(t), frameHello)
	})
	t.Run("coordinator-rejects-old-primary", func(t *testing.T) {
		rejects(t, leader(t), frameReplHello)
	})
	t.Run("standby-rejects-old-worker", func(t *testing.T) {
		rejects(t, startFollowerProbe(t, time.Minute, nil).addr, frameHello)
	})
	t.Run("standby-rejects-old-primary", func(t *testing.T) {
		rejects(t, startFollowerProbe(t, time.Minute, nil).addr, frameReplHello)
	})
	t.Run("worker-rejects-old-coordinator", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(10 * time.Second))
			if typ, _, err := readFrame(c); err != nil || typ != frameHello {
				return
			}
			// A version-1 welcome: 37 bytes, no epoch field.
			w := make([]byte, 0, 37)
			w = binary.LittleEndian.AppendUint16(w, 1)
			w = binary.LittleEndian.AppendUint16(w, 4)
			w = binary.LittleEndian.AppendUint64(w, 8)
			w = binary.LittleEndian.AppendUint32(w, 4)
			w = binary.LittleEndian.AppendUint32(w, 1)
			w = binary.LittleEndian.AppendUint32(w, 1)
			w = binary.LittleEndian.AppendUint32(w, 0)
			w = append(w, 0)
			w = binary.LittleEndian.AppendUint32(w, 50)
			w = binary.LittleEndian.AppendUint32(w, 2000)
			writeFrame(c, frameWelcome, w)
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		err = RunWorker(ctx, ln.Addr().String(), WorkerOptions{Name: "new", MaxReconnects: 1})
		var vErr *ErrProtocolVersion
		if !errors.As(err, &vErr) {
			t.Fatalf("worker returned %v, want the typed *ErrProtocolVersion (terminal, no retries)", err)
		}
		if vErr.Got != 1 || vErr.Want != ProtoVersion {
			t.Fatalf("version error carries %d/%d, want 1/%d", vErr.Got, vErr.Want, ProtoVersion)
		}
	})
}

// TestReplicaRefusalEndsReplication points a primary at a standby of
// another geometry (n=16, tile 4), which refuses every replication
// hello with a reasoned fail frame. The primary must take the refusal
// as final, not as a lost stream to redial every backoff step, and its
// solve must still finish bit-identical. The primary has no worker for
// the first 3s, so the count covers a solve in progress.
func TestReplicaRefusalEndsReplication(t *testing.T) {
	ref := serialRef(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	standby := &countingListener{Listener: sln}
	sctx, stopStandby := context.WithCancel(ctx)
	serr := make(chan error, 1)
	go func() {
		small := tri.ToTiled(workload.Chain[float32](16, testSeed), 4)
		serr <- RunStandby(sctx, standby, small, StandbyOptions{Options: testOptions(nil)})
	}()
	tbl := testTable(t)
	opts := testOptions(nil)
	opts.ReplicaAddr = sln.Addr().String()
	var refusals atomic.Int32
	opts.Logf = func(format string, args ...any) {
		if line := fmt.Sprintf(format, args...); strings.Contains(line, "standby rejected replication") {
			refusals.Add(1)
		}
		t.Logf(format, args...)
	}
	addr, wait := startCoordinator(ctx, t, tbl, opts)
	time.Sleep(3 * time.Second)
	n := standby.accepted.Load()
	t.Logf("%d replication sessions in 3s", n)
	if n > 5 {
		t.Errorf("the primary opened %d replication sessions in 3s against a refusing standby, want at most 5", n)
	}
	if n := refusals.Load(); n == 0 {
		t.Error("the primary never logged the standby's refusal")
	}
	var wg sync.WaitGroup
	startWorker(ctx, t, &wg, addr, WorkerOptions{Name: "w", Logf: t.Logf})
	if err := wait(); err != nil {
		t.Fatalf("Coordinate: %v", err)
	}
	cancel()
	wg.Wait()
	requireIdentical(t, ref, tbl)
	stopStandby()
	if err := <-serr; !errors.Is(err, context.Canceled) {
		t.Fatalf("RunStandby = %v, want context.Canceled", err)
	}
}

// TestEpochProtoRoundTrips covers the epoch codec surface: epoch-bearing
// hellos and welcomes, the replication hello (a hello plus the welcome
// carrying the full job description), and the bare epoch payload — plus
// truncation at every boundary, which must error rather than hang or
// mis-parse.
func TestEpochProtoRoundTrips(t *testing.T) {
	h, err := decodeHello(helloMsg{Epoch: 9, Name: "w"}.encode())
	if err != nil || h.Epoch != 9 || h.Name != "w" {
		t.Fatalf("hello round trip = (%+v, %v)", h, err)
	}
	w := welcomeMsg{ElemBytes: 8, N: 512, Tile: 64, SchedSide: 1, Shards: 2, Slot: 1,
		HeartbeatMS: 100, DeadlineMS: 900, Epoch: 4}
	gotW, err := decodeWelcome(w.encode())
	if err != nil || gotW != w {
		t.Fatalf("welcome round trip = (%+v, %v), want %+v", gotW, err, w)
	}
	rh := helloMsg{Epoch: 4, Name: "primary"}
	rw := welcomeMsg{ElemBytes: 4, N: 256, Tile: 32, SchedSide: 2, Shards: 3,
		HeartbeatMS: 50, DeadlineMS: 2000, Epoch: 4}
	wire := append(rh.encode(), rw.encode()...)
	gotH, gotW, err := decodeReplHello(wire)
	if err != nil || gotH != rh || gotW != rw {
		t.Fatalf("replication hello round trip = (%+v, %+v, %v), want %+v, %+v", gotH, gotW, err, rh, rw)
	}
	for cut := 0; cut < len(wire); cut++ {
		if _, _, err := decodeReplHello(wire[:cut]); err == nil {
			t.Fatalf("replication hello truncated at %d accepted", cut)
		}
	}
	if _, _, err := decodeReplHello(append(wire, 0)); err == nil {
		t.Fatal("trailing bytes after replication hello accepted")
	}
	ep, err := decodeEpoch(encodeEpoch(7))
	if err != nil || ep != 7 {
		t.Fatalf("epoch round trip = (%d, %v)", ep, err)
	}
	if _, err := decodeEpoch([]byte{1, 2, 3}); err == nil {
		t.Fatal("short epoch payload accepted")
	}
	// A taskMsg's epoch must survive the trip — it is the fence's input.
	m := taskMsg{Epoch: 6, Gen: 2, TaskID: 3}
	back, err := decodeTaskMsg(m.encode())
	if err != nil || back.Epoch != 6 {
		t.Fatalf("task epoch round trip = (%+v, %v)", back, err)
	}
}
