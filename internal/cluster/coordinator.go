package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"cellnpdp/internal/kernel"
	"cellnpdp/internal/npdp"
	"cellnpdp/internal/pager"
	"cellnpdp/internal/perfmodel"
	"cellnpdp/internal/resilience"
	"cellnpdp/internal/sched"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tableio"
	"cellnpdp/internal/tri"
)

// The coordinator is the PPE of the distributed solve: it owns the
// authoritative table (an npdp.BlockStore — in memory, or the spill
// pager), the dependence graph, and the shared recovery npdp.Ladder
// (seals, per-block heal budget). Workers hold no authoritative state at
// all; everything a worker computes only becomes real when its result
// blocks pass the seal audit at install time.
//
// Failure model and recovery — the single-process ladder plus what the
// network needs:
//
//	worker death      → re-dispatch its in-flight tasks to survivors
//	                    under bumped per-task generations, so a zombie's
//	                    late result is recognizably stale (no recompute
//	                    of installed state — installed blocks are
//	                    seal-verified and never leave the coordinator)
//	seal mismatch     → typed *resilience.ErrSealMismatch; with healing
//	                    on, the ladder demotes the poisoned cone
//	                    (sched.Graph.Cone) to pristine, the cone tasks'
//	                    generations bump so stale results can never
//	                    install, and only the cone is re-dispatched
//	corrupt page      → the same cone heal, whether or not Heal is set
//	heal exhaustion   → one pristine restart of the whole solve
//	still corrupt     → typed *resilience.CorruptionError
//	all workers gone  → wait WorkerlessAfter for reconnects, then a loud
//	                    typed error (never a hang)

// Defaults for Options zero values.
const (
	DefaultMaxInflight     = 2
	DefaultHeartbeatEvery  = 500 * time.Millisecond
	DefaultDeadlineAfter   = 5 * time.Second
	DefaultWorkerlessAfter = 60 * time.Second
)

// ErrNoWorkers reports that every worker stayed dead past
// Options.WorkerlessAfter with tasks still outstanding.
var ErrNoWorkers = errors.New("cluster: no live workers")

// Options configures a coordinator run.
type Options struct {
	// Shards is the number of contiguous column shards the scheduling
	// grid is partitioned into — normally the expected worker count.
	// Defaults to 1; clamped to the scheduling-column count.
	Shards int
	// SchedSide is the scheduling-block side g in memory blocks
	// (ParallelOptions.SchedSide); 0 means 1.
	SchedSide int
	// Stage1 pins the stage-1 kernel for the whole cluster; KernelAuto
	// consults the Section V calibration once, coordinator-side, and the
	// choice travels in the welcome so every worker computes with the
	// same kernel — a requirement for cluster-wide bit-identity.
	Stage1 perfmodel.Kernel
	// MaxInflight is the per-worker dispatch pipeline depth; 0 means
	// DefaultMaxInflight.
	MaxInflight int
	// HeartbeatEvery is the ping period (both directions); 0 means
	// DefaultHeartbeatEvery.
	HeartbeatEvery time.Duration
	// DeadlineAfter declares a silent worker dead; 0 means
	// DefaultDeadlineAfter. It must exceed the worst-case single-task
	// compute time, since a worker deep in stage 1 does not ping.
	DeadlineAfter time.Duration
	// WorkerlessAfter bounds how long the solve waits with zero live
	// workers before failing with ErrNoWorkers; 0 means
	// DefaultWorkerlessAfter.
	WorkerlessAfter time.Duration
	// Heal enables the poisoned-cone recovery path for seal mismatches.
	// Disabled, the first mismatch aborts with *resilience.ErrSealMismatch.
	// A corrupt final page of a paged table always heals, and only Heal
	// keeps a pristine copy of an in-memory table.
	Heal bool
	// HealAttempts bounds how many times any single block may fail its
	// seal and be cone-healed (per restart epoch) before the
	// pristine-restart rung; 0 means npdp.DefaultHealAttempts. The
	// budget is per block, not global: fresh corruption on previously
	// clean blocks never exhausts it, only a block that keeps failing
	// after recompute does.
	HealAttempts int
	// CheckpointPath, when set, receives periodic NPCK snapshots (and a
	// final one) via the multi-process-safe SaveCheckpointFile.
	CheckpointPath string
	// CheckpointEvery writes a snapshot every this many accepted tasks
	// (0 disables periodic snapshots; the final one still writes).
	CheckpointEvery int
	// Resume pre-completes tasks from CheckpointPath when a valid
	// snapshot with matching geometry exists.
	Resume bool
	// Stats, when non-nil, receives the run's counters at exit.
	Stats *Stats
	// OnTaskDone, when non-nil, is called from the event loop after each
	// accepted task with the cumulative accept count — the hook chaos
	// schedules key worker kills on. It must not block.
	OnTaskDone func(completed int, task sched.Task)
	// Logf, when non-nil, receives progress and failure-path logging.
	Logf func(format string, args ...any)
	// Epoch is the leadership epoch this coordinator runs at; 0 means 1
	// (a fresh primary). A standby taking over passes the deposed
	// leader's epoch + 1, which is what fences the old leader's writes
	// everywhere (see epoch.go).
	Epoch uint32
	// ReplicaAddr, when set, streams the completion log to a warm
	// standby at that address (see RunStandby); the replication link is
	// best-effort and never blocks or fails the solve.
	ReplicaAddr string
	// ReplicaDial overrides the replication connection factory (tests
	// inject proxies); nil means a plain TCP dial of ReplicaAddr.
	ReplicaDial func(ctx context.Context) (net.Conn, error)
	// Die, when non-nil, kills the event loop the instant it is
	// closed: run returns ErrDied with no fail broadcast, no final
	// checkpoint, and no replication farewell — the in-process analogue
	// of SIGKILL for failover tests and the harness.
	Die <-chan struct{}
	// SpillPath, when set, backs the coordinator's authoritative table
	// with the crash-consistent block pager instead of the in-memory
	// table: installed boundary blocks are sealed into a CRC-verified
	// spill file, heals demote to the on-disk pristine region, and only a
	// MemoryBudget-sized working set stays resident.
	// Incompatible with CheckpointPath — the committed spill index is the
	// checkpoint.
	SpillPath string
	// MemoryBudget caps the pager's resident working set in bytes; 0
	// leaves only the pager's minimum. Requires SpillPath.
	MemoryBudget int64
}

// Stats counts a coordinator run's work.
type Stats struct {
	// Tasks is the graph's task count; Resumed of them were
	// pre-completed from the checkpoint.
	Tasks   int
	Resumed int
	// PeakWorkers is the maximum concurrently-live worker count.
	PeakWorkers int
	// Dispatched counts dispatch frames sent; Accepted counts results
	// installed; StaleResults counts results dropped for a generation
	// mismatch (a healed or restarted task's old answer — not an error).
	Dispatched   int
	Accepted     int
	StaleResults int
	// SealMismatches counts boundary blocks whose bytes failed the
	// CRC32C seal audit at install time.
	SealMismatches int
	// WorkerDeaths counts declared deaths (EOF, read error, heartbeat
	// deadline); Redispatched counts in-flight tasks requeued by them.
	WorkerDeaths int
	Redispatched int
	// HealRounds / RecomputedTasks / PristineRestarts mirror the
	// single-process HealStats at cluster granularity.
	HealRounds       int
	RecomputedTasks  int
	PristineRestarts int
	// Checkpoints / CheckpointErrors count NPCK snapshot writes.
	Checkpoints      int
	CheckpointErrors int
	// BlocksStreamed / BytesStreamed count operand + pristine blocks
	// sent to workers (the cluster's "DMA traffic").
	BlocksStreamed int
	BytesStreamed  int64
	// Epoch is the leadership epoch the run executed at (1 for a fresh
	// primary, deposed+1 after a takeover).
	Epoch uint32
	// FencedWrites counts frames rejected for carrying a stale epoch —
	// results from a pre-failover dispatch, and replication or worker
	// hellos from a deposed leader's cluster. Every one is a write the
	// epoch fence stopped from landing.
	FencedWrites int
	// Failovers is 1 when this run is a standby resuming a dead
	// primary's wavefront, 0 for a fresh primary.
	Failovers int
	// ReplRecords / ReplResyncs count completion-log records queued for
	// the standby and full-state resyncs (stream (re)connects and
	// overflow recoveries).
	ReplRecords int
	ReplResyncs int
	// PagerStats carries the spill pager's disk-traffic and recovery
	// counters when the run used a paged authoritative table (SpillPath
	// set); nil otherwise.
	PagerStats *pager.Stats
}

// Health renders the counters in the shape serve.Config.ClusterHealth
// expects, keyed to match the /healthz "cluster" object. It reads a
// snapshot, so call it on a Stats copy taken after the run (or on one
// the caller synchronizes itself).
func (s *Stats) Health() map[string]any {
	return map[string]any{
		"tasks":           s.Tasks,
		"accepted":        s.Accepted,
		"dispatched":      s.Dispatched,
		"worker_deaths":   s.WorkerDeaths,
		"redispatched":    s.Redispatched,
		"stale_results":   s.StaleResults,
		"seal_mismatches": s.SealMismatches,
		"heal_rounds":     s.HealRounds,
		"epoch":           s.Epoch,
		"fenced_writes":   s.FencedWrites,
		"failovers":       s.Failovers,
		"repl_records":    s.ReplRecords,
		"repl_resyncs":    s.ReplResyncs,
	}
}

// Task lifecycle states.
const (
	tsNotReady = iota
	tsQueued
	tsInflight
	tsDone
)

// session is one live worker connection. All fields except out are
// owned by the event loop; the per-session reader goroutine only
// touches the conn's read half and posts events, and the per-session
// writer goroutine only drains out onto the conn's write half.
type session[E semiring.Elem] struct {
	id      int
	name    string
	conn    net.Conn
	shard   int
	possess []bool // dense memory-block ID → worker holds the final bytes
	// out is the bounded outbound frame queue feeding this session's
	// writer goroutine; only the event loop sends, and declareDead (also
	// on the event loop) closes it after marking the session dead.
	out chan outFrame
	// inflight is the number of dispatches outstanding on this worker.
	inflight int
	lastSeen time.Time
	dead     bool
}

// outFrame is one queued outbound frame.
type outFrame struct {
	typ     byte
	payload []byte
}

// outboundQueueCap sizes a session's outbound queue: room for the
// welcome, a generous multiple of the dispatch pipeline depth (heal
// rounds can release and re-dispatch slots while the writer is mid
// large frame), and the done/fail release. A full queue means the
// writer has been stalled on a frame while the event loop kept
// producing — the session is declared dead rather than ever blocking
// the loop.
func outboundQueueCap(maxInflight int) int { return 4*maxInflight + 16 }

type evKind int

const (
	evConn evKind = iota
	evResult
	evPing
	evFail
	evDead
	evReplConn // a replication hello arrived on the worker listener
	evFenced   // the standby (now leader) fenced our replication stream
)

type event[E semiring.Elem] struct {
	kind  evKind
	conn  net.Conn
	hello helloMsg
	repl  replHelloMsg
	sess  *session[E]
	msg   taskMsg
	text  string
	err   error
}

// replPull is the replicator goroutine asking the event loop for the
// next batch of completion-log records. full forces a snapshot resync
// (every stream (re)connect opens with one).
type replPull struct {
	full  bool
	reply chan []resilience.Delta // cap 1; the loop replies synchronously
}

// maxReplPending bounds the queued completion log while the replication
// stream is slow or down; overflow drops the queue and schedules a full
// resync instead of growing without bound.
const maxReplPending = 4096

// replFinal is the disposition the replicator delivers to the standby
// at shutdown. It is written before close(co.stop) — the close is the
// release barrier the replicator reads it after.
type replFinal struct {
	typ    byte // frameDone, frameFail, or 0 for silent death
	reason string
}

type coordinator[E semiring.Elem] struct {
	opts Options
	t    *tri.Tiled[E]
	// store is the authoritative table: every block read, install and
	// demote goes through it. It is a MemStore over t, or the spill pager
	// under SpillPath, where t is only the input source and the final
	// materialization target.
	store npdp.BlockStore[E]
	// ladder is the shared recovery state: block seals, the per-block
	// heal budget, and the counters it fills into healStats.
	ladder    *npdp.Ladder[E]
	healStats resilience.HealStats
	// pageErr records the first store failure hit inside a path that
	// cannot return an error (dispatch, install); the event loop surfaces
	// it after the current event, healing if it can.
	pageErr error
	g       *sched.Graph
	shards  Sharding
	stage1  perfmodel.Kernel

	epoch uint32

	state     []int
	gen       []uint32
	inflight  map[int]*session[E]
	queues    [][]int
	sessions  map[*session[E]]struct{}
	events    chan event[E]
	stop      chan struct{}
	writers   sync.WaitGroup
	nextSess  int
	done      int
	sinceCkpt int

	// Replication state. replPullC is nil when no standby is
	// configured; replPending/replFullSync are event-loop-owned;
	// replFinal is written once before close(co.stop).
	replPullC    chan replPull
	replPending  []resilience.Delta
	replFullSync bool
	replFinal    replFinal

	noWorkerSince time.Time

	stats Stats
}

// Coordinate runs the coordinator side of a distributed solve over the
// table t, accepting workers on ln until every task is installed and
// seal-audited. The table is solved in place; on success it is
// bit-identical to SolveSerial on the same input (same kernels, same
// dependence-ordered block computation — the schedule cannot change the
// values). The listener is closed before returning.
func Coordinate[E semiring.Elem](ctx context.Context, ln net.Listener, t *tri.Tiled[E], opts Options) error {
	return coordinate(ctx, ln, t, opts, nil)
}

// coordinate is the shared coordinator body. pre, when non-nil, is a
// replicated checkpoint a standby resumes from after taking over.
func coordinate[E semiring.Elem](ctx context.Context, ln net.Listener, t *tri.Tiled[E], opts Options, pre *resilience.Checkpoint[E]) error {
	defer ln.Close()
	if opts.SchedSide == 0 {
		opts.SchedSide = 1
	}
	if opts.SchedSide < 0 {
		return fmt.Errorf("cluster: scheduling-block side must be positive, got %d", opts.SchedSide)
	}
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = DefaultMaxInflight
	}
	if opts.HeartbeatEvery <= 0 {
		opts.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if opts.DeadlineAfter <= 0 {
		opts.DeadlineAfter = DefaultDeadlineAfter
	}
	if opts.WorkerlessAfter <= 0 {
		opts.WorkerlessAfter = DefaultWorkerlessAfter
	}
	if opts.HealAttempts <= 0 {
		opts.HealAttempts = npdp.DefaultHealAttempts
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}

	g, err := sched.NewGraph(t.Blocks(), opts.SchedSide)
	if err != nil {
		return err
	}
	sel := opts.Stage1
	var e E
	if sel == perfmodel.KernelAuto {
		_, isF32 := any(e).(float32)
		sel = perfmodel.PickKernel(perfmodel.Shape{Block: t.Tile(), N: t.Len(), Float32: isF32},
			runtime.GOARCH, kernel.VectorISA())
	}
	// Resolving validates the pin (and rejects the lattice kernel) with
	// the exact rules workers will apply.
	if _, err := npdp.ResolveStage1(sel, t); err != nil {
		return err
	}

	if opts.Epoch == 0 {
		opts.Epoch = 1
	}
	if opts.SpillPath != "" && opts.CheckpointPath != "" {
		return fmt.Errorf("cluster: SpillPath is incompatible with CheckpointPath — the committed spill index is the checkpoint")
	}
	if opts.MemoryBudget != 0 && opts.SpillPath == "" {
		return fmt.Errorf("cluster: MemoryBudget requires SpillPath")
	}

	co := &coordinator[E]{
		opts:     opts,
		t:        t,
		g:        g,
		shards:   NewSharding(g.SchedTiles, opts.Shards),
		stage1:   sel,
		epoch:    opts.Epoch,
		state:    make([]int, len(g.Tasks)),
		gen:      make([]uint32, len(g.Tasks)),
		inflight: make(map[int]*session[E]),
		sessions: make(map[*session[E]]struct{}),
		events:   make(chan event[E], 256),
		stop:     make(chan struct{}),
	}
	co.queues = make([][]int, co.shards.NumShards())
	co.stats.Tasks = len(g.Tasks)
	co.stats.Epoch = co.epoch

	var p *pager.Pager[E]
	if opts.SpillPath != "" {
		elem := tableio.ElemWidth(e)
		frameBytes := int64(t.Tile())*int64(t.Tile())*int64(elem) + 4
		frames := int(opts.MemoryBudget / frameBytes)
		if p, err = pager.Create(opts.SpillPath, t, pager.Options{Frames: frames, Logf: opts.Logf}); err != nil {
			return fmt.Errorf("cluster: creating spill pager: %w", err)
		}
		defer p.Close()
		co.store = p
	} else {
		co.store = npdp.NewMemStore(t, opts.Heal)
	}
	co.ladder = npdp.NewLadder(co.store, g, opts.HealAttempts, &co.healStats)

	if pre != nil {
		if err := co.applyCheckpoint(pre); err != nil {
			return err
		}
		co.stats.Failovers = 1
	} else if err := co.resume(); err != nil {
		return err
	}
	for _, task := range g.Tasks {
		if co.state[task.ID] != tsDone && co.depsDone(task.ID) {
			co.enqueue(task.ID)
		}
	}

	go co.acceptLoop(ln)
	if opts.ReplicaAddr != "" || opts.ReplicaDial != nil {
		co.replPullC = make(chan replPull)
		co.writers.Add(1)
		go co.runReplicator(ctx)
	}
	err = co.run(ctx)
	// The replicator reads the disposition after observing the stop
	// close (the write below happens-before it). A silent death sends
	// nothing — the standby's lease must expire, like a real crash.
	switch {
	case err == nil:
		co.replFinal = replFinal{typ: frameDone}
	case errors.Is(err, ErrDied):
		co.replFinal = replFinal{}
	default:
		co.replFinal = replFinal{typ: frameFail, reason: err.Error()}
	}
	close(co.stop)
	ln.Close()
	// The event loop has exited, so session state is safe to touch here.
	// Closing the outbound queues lets each writer flush the queued
	// done/fail release frames; the wait is bounded (writes carry
	// deadlines, and the force-close below unblocks any straggler).
	for sess := range co.sessions {
		close(sess.out)
	}
	drained := make(chan struct{})
	go func() {
		co.writers.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(opts.DeadlineAfter):
	}
	for sess := range co.sessions {
		sess.conn.Close()
	}
	if err == nil && p != nil {
		// The solve finished against the paged authority; the caller's
		// table gets the materialized result (final page-ins included in
		// the pager's traffic counters).
		if merr := p.Materialize(t); merr != nil {
			err = fmt.Errorf("cluster: materializing solved table from spill: %w", merr)
		}
	}
	if opts.Stats != nil {
		co.stats.HealRounds = co.healStats.HealRounds
		co.stats.RecomputedTasks = co.healStats.RecomputedTasks
		if co.healStats.CheckpointFallback {
			co.stats.PristineRestarts = 1
		}
		if p != nil {
			ps := p.Stats()
			co.stats.PagerStats = &ps
		}
		*opts.Stats = co.stats
	}
	return err
}

// run is the single-goroutine event loop; every piece of solve state is
// confined to it.
func (co *coordinator[E]) run(ctx context.Context) error {
	ticker := time.NewTicker(co.opts.HeartbeatEvery)
	defer ticker.Stop()
	if done, err := co.maybeFinish(); done || err != nil {
		return err // a resume can already be complete
	}
	for {
		select {
		case <-co.opts.Die:
			// Chaos kill: no broadcast, no checkpoint, no farewell. The
			// cluster must discover the death the hard way.
			return ErrDied
		case <-ctx.Done():
			co.broadcastFail("coordinator context canceled")
			return ctx.Err()
		case pr := <-co.replPullC:
			co.replReply(pr)
		case now := <-ticker.C:
			if err := co.tick(now); err != nil {
				co.broadcastAbort(err)
				return err
			}
		case ev := <-co.events:
			finished, err := co.handle(ev)
			if err != nil {
				co.broadcastAbort(err)
				return err
			}
			if finished {
				return nil
			}
		}
		// Store failures from paths that cannot return errors (dispatch,
		// install) surface here, once per event.
		if err := co.checkPageErr(); err != nil {
			co.broadcastAbort(err)
			return err
		}
	}
}

// replReply answers one replicator pull on the event loop: a full
// resync snapshot when requested (or when overflow forced one),
// otherwise the pending records accumulated since the last pull.
func (co *coordinator[E]) replReply(pr replPull) {
	if pr.full || co.replFullSync {
		co.replFullSync = false
		co.replPending = nil
		co.stats.ReplResyncs++
		pr.reply <- co.snapshotDeltas()
		return
	}
	batch := co.replPending
	co.replPending = nil
	pr.reply <- batch
}

// snapshotDeltas renders the full completion log as of now: a sync
// marker, then one done record per completed task with its installed
// blocks re-encoded from the authoritative table.
func (co *coordinator[E]) snapshotDeltas() []resilience.Delta {
	out := []resilience.Delta{{Kind: resilience.DeltaSyncBegin, Epoch: co.epoch}}
	for _, task := range co.g.Tasks {
		if co.state[task.ID] != tsDone {
			continue
		}
		d := resilience.Delta{Kind: resilience.DeltaTaskDone, Epoch: co.epoch, TaskID: task.ID, Gen: co.gen[task.ID]}
		readable := true
		for _, mb := range task.MemoryBlockOrder() {
			raw, err := co.encodeBlock(mb[0], mb[1])
			if err != nil {
				// Replication is best-effort: omit this task's record and
				// let the standby recompute it after takeover rather than
				// stall the solve on a spill read.
				co.opts.Logf("cluster: snapshot read of block (%d,%d) failed: %v; omitting task %d", mb[0], mb[1], err, task.ID)
				readable = false
				break
			}
			d.Blocks = append(d.Blocks, resilience.DeltaBlock{Bi: mb[0], Bj: mb[1], CRC: resilience.RawCRC(raw), Raw: raw})
		}
		if readable {
			out = append(out, d)
		}
	}
	return out
}

// replRecord queues one completion-log record for the standby. A full
// queue (stream down or slow) drops everything and schedules a resync —
// replication is best-effort and never backpressures the solve.
func (co *coordinator[E]) replRecord(d resilience.Delta) {
	if co.replPullC == nil || co.replFullSync {
		return
	}
	if len(co.replPending) >= maxReplPending {
		co.replPending = nil
		co.replFullSync = true
		return
	}
	co.replPending = append(co.replPending, d)
	co.stats.ReplRecords++
}

// handle processes one event; finished=true means every task installed
// and the final audit passed.
func (co *coordinator[E]) handle(ev event[E]) (finished bool, err error) {
	switch ev.kind {
	case evConn:
		return false, co.admit(ev.conn, ev.hello)
	case evReplConn:
		return false, co.handleReplConn(ev.conn, ev.repl)
	case evFenced:
		// The standby we replicate to has become the leader; we are
		// deposed. Terminal — our epoch can never win again.
		return false, &ErrEpochFenced{Epoch: co.epoch, Current: ev.repl.Epoch, Role: "coordinator"}
	case evPing:
		if !ev.sess.dead {
			ev.sess.lastSeen = time.Now()
		}
	case evFail:
		co.opts.Logf("cluster: worker %s failed: %s", ev.sess.name, ev.text)
		co.declareDead(ev.sess, errors.New(ev.text))
	case evDead:
		co.declareDead(ev.sess, ev.err)
	case evResult:
		if ev.sess.dead {
			co.stats.StaleResults++
			return false, nil
		}
		ev.sess.lastSeen = time.Now()
		return co.install(ev.sess, ev.msg)
	}
	return false, nil
}

// tick runs the heartbeat pass: deadline dead workers, ping the rest,
// and bound the zero-worker wait.
func (co *coordinator[E]) tick(now time.Time) error {
	for sess := range co.sessions {
		if now.Sub(sess.lastSeen) > co.opts.DeadlineAfter {
			co.opts.Logf("cluster: worker %s missed heartbeat deadline (%v)", sess.name, co.opts.DeadlineAfter)
			co.declareDead(sess, fmt.Errorf("heartbeat deadline %v exceeded", co.opts.DeadlineAfter))
			continue
		}
		// Any queued frame already proves coordinator liveness to the
		// worker (it refreshes lastSeen on every frame), so pings only
		// go out on an idle queue — they must never crowd it while the
		// writer works through a large dispatch.
		if len(sess.out) == 0 {
			co.send(sess, framePing, nil)
		}
	}
	if len(co.sessions) == 0 && co.done < len(co.g.Tasks) {
		if co.noWorkerSince.IsZero() {
			co.noWorkerSince = now
		} else if now.Sub(co.noWorkerSince) > co.opts.WorkerlessAfter {
			return fmt.Errorf("%w for %v with %d/%d tasks outstanding",
				ErrNoWorkers, co.opts.WorkerlessAfter, len(co.g.Tasks)-co.done, len(co.g.Tasks))
		}
	} else {
		co.noWorkerSince = time.Time{}
	}
	return nil
}

// acceptLoop admits connections: it performs the blocking hello read off
// the event loop, then hands the connection over.
func (co *coordinator[E]) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed at shutdown
		}
		go func(conn net.Conn) {
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			typ, payload, err := readFrame(conn)
			if err != nil {
				conn.Close()
				return
			}
			switch typ {
			case frameHello:
				hello, err := decodeHello(payload)
				if err != nil {
					// A version mismatch gets a reasoned rejection — the
					// worker fails fast and loud instead of seeing a bare
					// close (or, pre-typed-errors, a checksum mismatch).
					var vErr *ErrProtocolVersion
					if errors.As(err, &vErr) {
						conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
						writeFrame(conn, frameFail, failMsg{Reason: err.Error()}.encode())
					}
					conn.Close()
					return
				}
				conn.SetReadDeadline(time.Time{})
				co.post(event[E]{kind: evConn, conn: conn, hello: hello})
			case frameReplHello:
				// A deposed primary's replication stream found us (the
				// worker listener and the standby listener are the same
				// port once a standby takes over). The event loop judges
				// its epoch.
				repl, err := decodeReplHello(payload)
				if err != nil {
					conn.Close()
					return
				}
				conn.SetReadDeadline(time.Time{})
				co.post(event[E]{kind: evReplConn, conn: conn, repl: repl})
			default:
				conn.Close()
			}
		}(conn)
	}
}

// post delivers an event unless the coordinator already shut down.
func (co *coordinator[E]) post(ev event[E]) {
	select {
	case co.events <- ev:
	case <-co.stop:
		if ev.conn != nil {
			ev.conn.Close()
		}
	}
}

// admit turns a hello'd connection into a live session on the
// least-loaded shard and starts its reader. A worker that has been
// welcomed at a higher epoch than ours proves we are deposed: the run
// aborts, because any state we install from here on diverges from the
// real leader's.
func (co *coordinator[E]) admit(conn net.Conn, hello helloMsg) error {
	if hello.Epoch > co.epoch {
		co.opts.Logf("cluster: worker %s has seen epoch %d > ours (%d); we are deposed", hello.Name, hello.Epoch, co.epoch)
		go func() {
			conn.SetWriteDeadline(time.Now().Add(co.opts.DeadlineAfter))
			writeFrame(conn, frameStandby, nil)
			conn.Close()
		}()
		return &ErrEpochFenced{Epoch: co.epoch, Current: hello.Epoch, Role: "coordinator"}
	}
	shard, least := 0, -1
	live := make([]int, co.shards.NumShards())
	for sess := range co.sessions {
		live[sess.shard]++
	}
	for s, n := range live {
		if least < 0 || n < least {
			shard, least = s, n
		}
	}
	sess := &session[E]{
		id:       co.nextSess,
		name:     fmt.Sprintf("%s#%d", hello.Name, co.nextSess),
		conn:     conn,
		shard:    shard,
		possess:  make([]bool, co.t.Blocks()*(co.t.Blocks()+1)/2),
		out:      make(chan outFrame, outboundQueueCap(co.opts.MaxInflight)),
		lastSeen: time.Now(),
	}
	co.nextSess++
	co.writers.Add(1)
	go co.writeLoop(sess)
	var e E
	welcome := welcomeMsg{
		ElemBytes:   tableio.ElemWidth(e),
		N:           co.t.Len(),
		Tile:        co.t.Tile(),
		SchedSide:   co.opts.SchedSide,
		Shards:      co.shards.NumShards(),
		Slot:        shard,
		Stage1:      uint8(co.stage1),
		HeartbeatMS: uint32(co.opts.HeartbeatEvery / time.Millisecond),
		DeadlineMS:  uint32(co.opts.DeadlineAfter / time.Millisecond),
		Epoch:       co.epoch,
	}
	co.sessions[sess] = struct{}{}
	if len(co.sessions) > co.stats.PeakWorkers {
		co.stats.PeakWorkers = len(co.sessions)
	}
	co.opts.Logf("cluster: worker %s joined (shard %d of %d)", sess.name, shard, co.shards.NumShards())
	if !co.send(sess, frameWelcome, welcome.encode()) {
		return nil
	}
	go co.readLoop(sess)
	co.fill(sess)
	return nil
}

// handleReplConn judges a replication hello that arrived on the worker
// listener: a stale pusher (a deposed primary that has not yet noticed)
// is fenced, a pusher from the future means we are the deposed one.
func (co *coordinator[E]) handleReplConn(conn net.Conn, repl replHelloMsg) error {
	if repl.Epoch > co.epoch {
		conn.Close()
		return &ErrEpochFenced{Epoch: co.epoch, Current: repl.Epoch, Role: "coordinator"}
	}
	co.stats.FencedWrites++
	co.opts.Logf("cluster: fenced replication stream %q at stale epoch %d (current %d)", repl.Name, repl.Epoch, co.epoch)
	go func() {
		conn.SetWriteDeadline(time.Now().Add(co.opts.DeadlineAfter))
		writeFrame(conn, frameFenced, encodeEpoch(co.epoch))
		conn.Close()
	}()
	return nil
}

// readLoop decodes a session's frames and posts them to the event loop.
func (co *coordinator[E]) readLoop(sess *session[E]) {
	for {
		// The read deadline is a backstop only; liveness is judged by the
		// event loop against lastSeen.
		sess.conn.SetReadDeadline(time.Now().Add(2 * co.opts.DeadlineAfter))
		typ, payload, err := readFrame(sess.conn)
		if err != nil {
			co.post(event[E]{kind: evDead, sess: sess, err: err})
			return
		}
		switch typ {
		case frameResult:
			msg, err := decodeTaskMsg(payload)
			if err != nil {
				co.post(event[E]{kind: evDead, sess: sess, err: err})
				return
			}
			co.post(event[E]{kind: evResult, sess: sess, msg: msg})
		case framePing:
			co.post(event[E]{kind: evPing, sess: sess})
		case frameFail:
			f, _ := decodeFail(payload)
			co.post(event[E]{kind: evFail, sess: sess, text: f.Reason})
			return
		default:
			co.post(event[E]{kind: evDead, sess: sess, err: fmt.Errorf("unexpected frame type %d", typ)})
			return
		}
	}
}

// send enqueues one frame on the session's writer goroutine without
// ever blocking the event loop; a full queue means the writer has
// stalled past what the pipeline can legitimately produce, and the
// session is declared dead. Returns whether the frame was queued.
func (co *coordinator[E]) send(sess *session[E], typ byte, payload []byte) bool {
	if sess.dead {
		return false
	}
	select {
	case sess.out <- outFrame{typ: typ, payload: payload}:
		return true
	default:
		co.declareDead(sess, fmt.Errorf("outbound queue full (%d frames): writer stalled", cap(sess.out)))
		return false
	}
}

// writeLoop is a session's writer goroutine: it drains the outbound
// queue onto the conn, each frame under a write deadline, so a slow or
// partitioned worker can never stall the event loop — dispatch frames
// run to many MB, and a synchronous write would block heartbeats and
// dispatch to every other worker for up to the deadline per frame. A
// write error posts the death and abandons the rest of the queue; a
// closed queue (declareDead or shutdown) drains what was accepted,
// then exits.
func (co *coordinator[E]) writeLoop(sess *session[E]) {
	defer co.writers.Done()
	for f := range sess.out {
		sess.conn.SetWriteDeadline(time.Now().Add(co.opts.DeadlineAfter))
		if err := writeFrame(sess.conn, f.typ, f.payload); err != nil {
			co.post(event[E]{kind: evDead, sess: sess, err: fmt.Errorf("write: %w", err)})
			return
		}
	}
}

// declareDead removes a session and requeues its in-flight tasks at the
// front of their shard queues under bumped generations — the
// death-recovery rung of the ladder. The bump makes any result the dead
// worker already produced recognizably stale on its own (defense in
// depth beyond the closed conn and the dead-session drop in handle).
func (co *coordinator[E]) declareDead(sess *session[E], cause error) {
	if sess.dead {
		return
	}
	sess.dead = true
	delete(co.sessions, sess)
	sess.conn.Close() // a zombie's late frames can never arrive
	close(sess.out)   // the writer drains what was queued, then exits
	co.stats.WorkerDeaths++
	var requeued []int
	for id, s := range co.inflight {
		if s == sess {
			requeued = append(requeued, id)
		}
	}
	sort.Ints(requeued)
	for _, id := range requeued {
		delete(co.inflight, id)
		co.state[id] = tsQueued
		co.gen[id]++
		q := co.taskShard(id)
		co.queues[q] = append([]int{id}, co.queues[q]...)
	}
	co.stats.Redispatched += len(requeued)
	co.opts.Logf("cluster: worker %s dead (%v); requeued %d in-flight tasks", sess.name, cause, len(requeued))
	co.fillAll()
}

// encodeBlock reads block (bi, bj) from the authoritative store — in
// place, or a CRC-verified page-in — and encodes it for the wire.
func (co *coordinator[E]) encodeBlock(bi, bj int) ([]byte, error) {
	cells, err := co.store.Acquire(bi, bj)
	if err != nil {
		return nil, err
	}
	defer co.store.Release(bi, bj)
	return encodeCells(cells), nil
}

// notePageErr records the first store failure from a path that cannot
// return an error; the event loop surfaces it after the current event
// (healing a corrupt final block, aborting otherwise).
func (co *coordinator[E]) notePageErr(err error) {
	if co.pageErr == nil {
		co.pageErr = err
	}
}

// checkPageErr drains recorded store failures through pageFault.
// Healing re-dispatches, which can fault again, so this loops until
// quiet; the ladder's per-block budget bounds the loop.
func (co *coordinator[E]) checkPageErr() error {
	for co.pageErr != nil {
		err := co.pageErr
		co.pageErr = nil
		if err := co.pageFault(err); err != nil {
			return err
		}
	}
	return nil
}

// pageFault routes a store failure through the ladder: a corrupt spilled
// final block heals its cone whatever Heal says (the pager re-reads the
// pristine region), anything else — a corrupt pristine block, spill-space
// exhaustion, a persistent EIO — aborts the solve.
func (co *coordinator[E]) pageFault(err error) error {
	var pe *pager.ErrPageCorrupt
	if errors.As(err, &pe) && !pe.Pristine {
		co.opts.Logf("cluster: %v; healing its cone", pe)
		return co.escalate([][2]int{{pe.Bi, pe.Bj}}, true)
	}
	return fmt.Errorf("cluster: authoritative table failed: %w", err)
}

// taskShard maps a task to the shard owning its scheduling column.
func (co *coordinator[E]) taskShard(id int) int { return co.shards.Of(co.g.Tasks[id].Bj) }

// depsDone reports whether every predecessor of task id is installed.
func (co *coordinator[E]) depsDone(id int) bool {
	for _, d := range co.g.Tasks[id].Deps {
		if co.state[d] != tsDone {
			return false
		}
	}
	return true
}

// enqueue marks a task ready on its home shard's queue.
func (co *coordinator[E]) enqueue(id int) {
	co.state[id] = tsQueued
	q := co.taskShard(id)
	co.queues[q] = append(co.queues[q], id)
}

// fill pipelines dispatches to one worker up to MaxInflight: its own
// shard's queue first, then work stealing from the lowest-index
// non-empty queue so a dead shard's backlog drains through survivors.
func (co *coordinator[E]) fill(sess *session[E]) {
	for !sess.dead && sess.inflight < co.opts.MaxInflight {
		q := sess.shard
		if len(co.queues[q]) == 0 {
			q = -1
			for s := range co.queues {
				if len(co.queues[s]) > 0 {
					q = s
					break
				}
			}
			if q < 0 {
				return
			}
		}
		id := co.queues[q][0]
		co.queues[q] = co.queues[q][1:]
		if !co.dispatch(sess, id) {
			// A spill page-in failed while assembling the dispatch; the
			// task is requeued and the fault is recorded for the event
			// loop. Stop filling — retrying now would fault again.
			return
		}
	}
}

// fillAll tops up every live worker, lowest session ID first for
// deterministic test schedules.
func (co *coordinator[E]) fillAll() {
	order := make([]*session[E], 0, len(co.sessions))
	for sess := range co.sessions {
		order = append(order, sess)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].id < order[j].id })
	for _, sess := range order {
		co.fill(sess)
	}
}

// dispatch streams one task to a worker: the task's operand blocks at
// their installed final values plus its own blocks at pristine values —
// each only if the worker does not already hold those exact bytes, each
// carrying its CRC32C seal. This is the DMA-of-nearest-operands step of
// the paper's SPE procedure, lifted to the wire. In paged mode the
// bytes come through the pager (resident frame or CRC-verified
// page-in); a page-in failure requeues the task, records the fault for
// the event loop, and reports false.
func (co *coordinator[E]) dispatch(sess *session[E], id int) bool {
	task := co.g.Tasks[id]
	msg := taskMsg{Epoch: co.epoch, Gen: co.gen[id], TaskID: id}
	var marked []int
	addBlock := func(bi, bj int, final bool) error {
		bid := co.t.BlockID(bi, bj)
		if sess.possess[bid] {
			return nil
		}
		raw, err := co.encodeBlock(bi, bj)
		if err != nil {
			return err
		}
		msg.Blocks = append(msg.Blocks, wireBlock{Bi: bi, Bj: bj, CRC: resilience.RawCRC(raw), Raw: raw})
		if final {
			// Operands are final; own pristine blocks are not — the
			// worker overwrites them, so they are never "possessed".
			sess.possess[bid] = true
			marked = append(marked, bid)
		}
		co.stats.BlocksStreamed++
		co.stats.BytesStreamed += int64(len(raw))
		return nil
	}
	abort := func(err error) bool {
		// Nothing was sent: unmark possession claimed for this message.
		for _, bid := range marked {
			sess.possess[bid] = false
		}
		co.opts.Logf("cluster: paging in blocks for task %d failed: %v; requeueing", id, err)
		co.enqueue(id)
		co.notePageErr(err)
		return false
	}
	for _, mb := range operandBlocks(task) {
		if err := addBlock(mb[0], mb[1], true); err != nil {
			return abort(err)
		}
	}
	for _, mb := range task.MemoryBlockOrder() {
		if err := addBlock(mb[0], mb[1], false); err != nil {
			return abort(err)
		}
	}
	co.state[id] = tsInflight
	co.inflight[id] = sess
	sess.inflight++
	co.stats.Dispatched++
	co.send(sess, frameDispatch, msg.encode())
	return true
}

// operandBlocks enumerates the memory blocks outside task that any of
// its own blocks reads: the stage-1 row/column interiors plus the two
// stage-2 diagonal blocks, deduplicated, in deterministic order.
func operandBlocks(task sched.Task) [][2]int {
	seen := make(map[[2]int]bool)
	var out [][2]int
	inTask := func(a, b int) bool {
		return a >= task.RowLo && a < task.RowHi && b >= task.ColLo && b < task.ColHi
	}
	add := func(a, b int) {
		if inTask(a, b) {
			return
		}
		k := [2]int{a, b}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	for _, mb := range task.MemoryBlockOrder() {
		mi, mj := mb[0], mb[1]
		if mi == mj {
			continue // Stage2Diag is in-place
		}
		add(mi, mi)
		add(mj, mj)
		for k := mi + 1; k < mj; k++ {
			add(mi, k)
			add(k, mj)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// install audits and installs one result. A generation mismatch is a
// stale-version boundary block — a healed or restarted task's old
// answer — and is dropped without error; a CRC mismatch is transport or
// memory corruption and enters the heal ladder.
func (co *coordinator[E]) install(sess *session[E], msg taskMsg) (finished bool, err error) {
	// The epoch fence comes before everything else: a result produced
	// under another leader's epoch (a pre-failover dispatch replayed at
	// us, or a frame laundered through a deposed coordinator) must not
	// even reach the generation logic. No pipeline slot is released —
	// this session never owned a dispatch for that frame.
	if msg.Epoch != co.epoch {
		co.stats.FencedWrites++
		co.opts.Logf("cluster: fenced result from %s: epoch %d, current %d", sess.name, msg.Epoch, co.epoch)
		return false, nil
	}
	id := msg.TaskID
	if id < 0 || id >= len(co.g.Tasks) {
		co.declareDead(sess, fmt.Errorf("result for unknown task %d", id))
		return false, nil
	}
	if msg.Gen != co.gen[id] || co.state[id] != tsInflight || co.inflight[id] != sess {
		co.stats.StaleResults++
		// The dispatch pipeline slot is only released if this session
		// still owns one for the task; a heal already released it.
		co.fill(sess)
		return false, nil
	}
	task := co.g.Tasks[id]
	own := task.MemoryBlockOrder()
	if len(msg.Blocks) != len(own) {
		co.declareDead(sess, fmt.Errorf("result for task %d carries %d blocks, want %d", id, len(msg.Blocks), len(own)))
		return false, nil
	}
	var e E
	width := tableio.ElemWidth(e)
	for i, wb := range msg.Blocks {
		if wb.Bi != own[i][0] || wb.Bj != own[i][1] || len(wb.Raw) != width*co.t.Tile()*co.t.Tile() {
			co.declareDead(sess, fmt.Errorf("result for task %d block %d malformed", id, i))
			return false, nil
		}
		if got := resilience.RawCRC(wb.Raw); got != wb.CRC {
			co.stats.SealMismatches++
			mismatch := &resilience.ErrSealMismatch{
				Bi: wb.Bi, Bj: wb.Bj,
				BlockID: co.t.BlockID(wb.Bi, wb.Bj),
				TaskID:  id,
				Want:    wb.CRC, Got: got,
			}
			co.opts.Logf("cluster: %v (worker %s, gen %d)", mismatch, sess.name, msg.Gen)
			if !co.opts.Heal {
				return false, fmt.Errorf("cluster: installing boundary block from worker %s: %w", sess.name, mismatch)
			}
			sess.inflight--
			delete(co.inflight, id)
			co.state[id] = tsNotReady
			return false, co.escalate([][2]int{{wb.Bi, wb.Bj}}, true)
		}
	}
	// The whole result audited clean; install it into the store, final.
	for _, wb := range msg.Blocks {
		cells, err := co.store.Acquire(wb.Bi, wb.Bj)
		if err == nil {
			if err = decodeCells(cells, wb.Raw); err == nil {
				err = co.store.Complete(wb.Bi, wb.Bj)
			}
			co.store.Release(wb.Bi, wb.Bj)
		}
		if err != nil {
			// Store trouble installing an audited result is not the
			// worker's fault: put the task back on its queue and let the
			// event loop surface the fault (heal or abort). Blocks already
			// installed re-seal on the retry.
			sess.inflight--
			delete(co.inflight, id)
			co.enqueue(id)
			co.notePageErr(err)
			return false, nil
		}
		co.ladder.Seal(wb.Bi, wb.Bj, wb.CRC)
		// A clean install resets the block's heal budget: escalation is
		// for a block that fails *consecutively* after recompute, not one
		// that accumulates unlucky rolls across many cone re-executions.
		co.ladder.Clean(wb.Bi, wb.Bj)
		sess.possess[co.t.BlockID(wb.Bi, wb.Bj)] = true
	}
	sess.inflight--
	delete(co.inflight, id)
	co.state[id] = tsDone
	co.done++
	co.stats.Accepted++
	if co.replPullC != nil {
		// Reusing the result's Raw slices is safe: frame payloads are
		// never recycled after decode.
		d := resilience.Delta{Kind: resilience.DeltaTaskDone, Epoch: co.epoch, TaskID: id, Gen: msg.Gen}
		for _, wb := range msg.Blocks {
			d.Blocks = append(d.Blocks, resilience.DeltaBlock{Bi: wb.Bi, Bj: wb.Bj, CRC: wb.CRC, Raw: wb.Raw})
		}
		co.replRecord(d)
	}
	for _, succ := range task.Succs {
		if co.state[succ] == tsNotReady && co.depsDone(succ) {
			co.enqueue(succ)
		}
	}
	if co.opts.OnTaskDone != nil {
		co.opts.OnTaskDone(co.done, task)
	}
	co.maybeCheckpoint()
	if done, err := co.maybeFinish(); done || err != nil {
		return done, err
	}
	co.fillAll()
	return false, nil
}

// escalate climbs the shared recovery ladder (npdp.Ladder) for blocks
// that failed verification — the ladder demotes and unseals the tasks to
// recompute — then does the network half: forget every worker's copy of
// their blocks, bump their generations (so any result already in flight
// for the old dispatch is recognizably stale), and re-dispatch only
// them. healable gates recovery: Heal for a seal mismatch, always for a
// corrupt final page. Exhaustion escalates to one pristine restart, then
// to a typed CorruptionError.
func (co *coordinator[E]) escalate(bad [][2]int, healable bool) error {
	ids, restart, err := co.ladder.Escalate(bad, healable)
	if err != nil {
		return err
	}
	for _, id := range ids {
		co.resetTask(id)
	}
	// Queued members were reset to tsNotReady above; drop them.
	co.purgeQueues()
	for _, id := range ids {
		if co.depsDone(id) {
			co.enqueue(id)
		}
	}
	if restart {
		co.opts.Logf("cluster: per-block heal budget exhausted; pristine restart")
	} else {
		co.opts.Logf("cluster: heal round %d: re-dispatching %d-task cone of %v", co.healStats.HealRounds, len(ids), bad)
	}
	co.fillAll()
	return nil
}

// resetTask reverts one task's network state after the ladder demoted
// its blocks: no possession anywhere, generation bumped, completion
// undone.
func (co *coordinator[E]) resetTask(id int) {
	for _, mb := range co.g.Tasks[id].MemoryBlockOrder() {
		bid := co.t.BlockID(mb[0], mb[1])
		for sess := range co.sessions {
			sess.possess[bid] = false
		}
	}
	if co.state[id] == tsDone {
		co.done--
	}
	if s, ok := co.inflight[id]; ok {
		s.inflight--
		delete(co.inflight, id)
	}
	if co.state[id] == tsDone && co.replPullC != nil {
		d := resilience.Delta{Kind: resilience.DeltaTaskReset, Epoch: co.epoch, TaskID: id}
		for _, mb := range co.g.Tasks[id].MemoryBlockOrder() {
			d.Blocks = append(d.Blocks, resilience.DeltaBlock{Bi: mb[0], Bj: mb[1]})
		}
		co.replRecord(d)
	}
	co.state[id] = tsNotReady
	co.gen[id]++
}

// purgeQueues drops queue entries whose state is no longer queued.
func (co *coordinator[E]) purgeQueues() {
	for s := range co.queues {
		kept := co.queues[s][:0]
		for _, id := range co.queues[s] {
			if co.state[id] == tsQueued {
				kept = append(kept, id)
			}
		}
		co.queues[s] = kept
	}
}

// maybeFinish runs the completion check: all tasks installed, then a
// full post-solve seal audit (the defense against coordinator-side
// memory corruption after install). A clean audit writes the final
// checkpoint, releases the workers, and ends the run.
func (co *coordinator[E]) maybeFinish() (bool, error) {
	if co.done < len(co.g.Tasks) {
		return false, nil
	}
	bad, err := co.ladder.Audit()
	if err != nil {
		// A final block that cannot be paged back in is a detection too.
		return false, co.pageFault(err)
	}
	if len(bad) > 0 {
		co.stats.SealMismatches += len(bad)
		return false, co.escalate(bad, co.opts.Heal)
	}
	co.finalCheckpoint()
	for sess := range co.sessions {
		co.send(sess, frameDone, nil)
	}
	return true, nil
}

// maybeCheckpoint writes a periodic NPCK snapshot.
func (co *coordinator[E]) maybeCheckpoint() {
	co.sinceCkpt++
	if co.opts.CheckpointPath == "" || co.opts.CheckpointEvery <= 0 || co.sinceCkpt < co.opts.CheckpointEvery {
		return
	}
	co.sinceCkpt = 0
	co.writeCheckpoint()
}

// finalCheckpoint persists the completed solve when a path is set.
func (co *coordinator[E]) finalCheckpoint() {
	if co.opts.CheckpointPath == "" {
		return
	}
	co.writeCheckpoint()
}

func (co *coordinator[E]) writeCheckpoint() {
	var e E
	meta := resilience.Meta{
		N: co.t.Len(), Tile: co.t.Tile(), SchedSide: co.opts.SchedSide,
		Tasks: len(co.g.Tasks), ElemBytes: tableio.ElemWidth(e),
	}
	done := make([]bool, len(co.g.Tasks))
	var blocks [][2]int
	for _, task := range co.g.Tasks {
		if co.state[task.ID] == tsDone {
			done[task.ID] = true
			blocks = append(blocks, task.MemoryBlockOrder()...)
		}
	}
	if err := resilience.SaveCheckpointFile(co.opts.CheckpointPath, meta, done, co.t, blocks); err != nil {
		co.stats.CheckpointErrors++
		co.opts.Logf("cluster: checkpoint write failed: %v", err)
		return
	}
	co.stats.Checkpoints++
}

// resume pre-completes tasks from the checkpoint file, sealing restored
// blocks so audits cover resumed state. The stale-temp sweep runs first
// and is pid-aware, so a peer coordinator sharing the directory keeps
// its in-flight temp.
func (co *coordinator[E]) resume() error {
	if !co.opts.Resume || co.opts.CheckpointPath == "" {
		return nil
	}
	if _, err := resilience.RemoveStaleTemps(co.opts.CheckpointPath); err != nil {
		co.opts.Logf("cluster: stale-temp sweep: %v", err)
	}
	ck, err := resilience.LoadCheckpointFile[E](co.opts.CheckpointPath)
	if errors.Is(err, resilience.ErrNoCheckpoint) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("cluster: resume: %w", err)
	}
	if err := ck.Matches(co.t.Len(), co.t.Tile(), co.opts.SchedSide); err != nil {
		co.opts.Logf("cluster: ignoring checkpoint: %v", err)
		return nil
	}
	if err := co.applyCheckpoint(ck); err != nil {
		return err
	}
	co.opts.Logf("cluster: resumed %d/%d tasks from %s", co.stats.Resumed, len(co.g.Tasks), co.opts.CheckpointPath)
	return nil
}

// applyCheckpoint pre-completes tasks from a validated snapshot —
// either a loaded NPCK file (resume) or a replica's delta-built shadow
// (failover takeover) — through npdp.ApplyCheckpoint, the same function
// a single-process resume uses. A task is done iff all its blocks are
// final in the store; restored blocks are sealed so audits cover them.
func (co *coordinator[E]) applyCheckpoint(ck *resilience.Checkpoint[E]) error {
	if err := ck.Matches(co.t.Len(), co.t.Tile(), co.opts.SchedSide); err != nil {
		return fmt.Errorf("cluster: applying checkpoint: %w", err)
	}
	if _, err := npdp.ApplyCheckpoint(co.store, co.g, ck, co.opts.Logf); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	for id, done := range npdp.Completed(co.store, co.g) {
		if done {
			co.state[id] = tsDone
			co.done++
			co.stats.Resumed++
		}
	}
	return co.ladder.SealFinals()
}

// broadcastAbort ends the run toward the workers. A fenced abort (we
// were deposed) broadcasts frameFenced with the winning epoch — a
// re-home signal, the workers' solve is still alive under the new
// leader — while every other abort is terminal.
func (co *coordinator[E]) broadcastAbort(err error) {
	var fenced *ErrEpochFenced
	if errors.As(err, &fenced) {
		payload := encodeEpoch(fenced.Current)
		for sess := range co.sessions {
			co.send(sess, frameFenced, payload)
		}
		return
	}
	co.broadcastFail(err.Error())
}

// broadcastFail tells every live worker the run is over and why, so
// they exit instead of reconnecting into a void.
func (co *coordinator[E]) broadcastFail(reason string) {
	payload := failMsg{Reason: reason}.encode()
	for sess := range co.sessions {
		co.send(sess, frameFail, payload)
	}
}
