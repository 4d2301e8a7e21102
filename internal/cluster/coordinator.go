package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"cellnpdp/internal/npdp"
	"cellnpdp/internal/pager"
	"cellnpdp/internal/resilience"
	"cellnpdp/internal/sched"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tableio"
	"cellnpdp/internal/tri"
)

// The coordinator is the PPE of the distributed solve: it owns the
// authoritative table (an npdp.BlockStore — in memory, or the spill
// pager, which is the checkpoint when one is kept), the dependence
// graph, and the shared recovery npdp.Ladder (seals, per-block heal
// budget). Workers hold no authoritative state at all; everything a
// worker computes only becomes real when its result blocks pass the
// seal audit at install time.
//
// The PPE task queue is the in-process one: each wave of the wavefront
// is one sched.RunPoolCtx, which counts dependences, orders the ready
// set critical-path first, and completes or cancels the wave. Its task
// body only asks the event loop to run the task on a worker and waits
// for the answer. The event loop keeps what the network needs:
// sessions, heartbeats, operand possession, generations, epoch fences,
// replication, and single-writer access to the store. Between waves it
// runs the executor's post-run step, npdp.Ladder.Step.
//
// Failure model and recovery — the single-process ladder plus what the
// network needs:
//
//	worker death      → its in-flight requests go back to the front of
//	                    their shard FIFOs for the survivors; every
//	                    dispatch of a task carries a higher generation
//	                    than all earlier ones, so a zombie's late result
//	                    is recognizably stale (installed blocks are
//	                    seal-verified and never leave the coordinator)
//	seal mismatch     → typed *resilience.ErrSealMismatch; with healing
//	                    on, the wave stops dispatching, and between
//	                    waves the ladder demotes the poisoned cone
//	                    (sched.Graph.Cone) to pristine; the next wave
//	                    runs only the cone
//	corrupt page      → the same cone heal, whether or not Heal is set
//	heal exhaustion   → one pristine restart of the whole solve
//	still corrupt     → typed *resilience.CorruptionError
//	all workers gone  → wait WorkerlessAfter for reconnects, then a loud
//	                    typed error (never a hang)

// maxInflight is the per-worker dispatch pipeline depth: one task
// computing while the next one's operands stream in. A depth of 4
// kept cluster-2048's p50 within noise of 2.
const maxInflight = 2

// Defaults for Options zero values.
const (
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
	// HeartbeatEvery is the ping period (both directions, and to the
	// standby); 0 means DefaultHeartbeatEvery. It paces pings only:
	// replication records reach the standby as they are made.
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
	// CheckpointPath, when set, makes the authoritative table a durable
	// spill file at this path — the checkpoint, with its index at
	// CheckpointPath+".idx" — which commits the final, verified blocks
	// every CheckpointEvery accepted tasks and once more however the run
	// ends, except through Die (npdp.Ladder.Commit).
	CheckpointPath string
	// CheckpointEvery is the commit period in accepted tasks; 0 means
	// npdp.DefaultCheckpointEvery (16).
	CheckpointEvery int
	// Resume continues from the checkpoint at CheckpointPath: its
	// committed blocks are final once their page-in verifies, and only
	// the remainder is dispatched. A missing file or another geometry (n,
	// tile or element width) is an error, returned before anything is
	// written. Requires CheckpointPath.
	Resume bool
	// Stats, when non-nil, receives the run's counters at exit.
	Stats *Stats
	// OnTaskDone, when non-nil, is called from the event loop after each
	// accepted task with Stats.Accepted so far — monotone, since a healed
	// task's re-install counts again — the hook chaos schedules key
	// worker kills on. It must not block.
	OnTaskDone func(completed int, task sched.Task)
	// Logf, when non-nil, receives progress and failure-path logging.
	Logf func(format string, args ...any)
	// Epoch is the leadership epoch this coordinator runs at; 0 means 1
	// (a fresh primary). A standby takes over at the deposed leader's
	// epoch + 1, which is what fences the old leader's writes everywhere
	// (see epoch.go).
	Epoch uint32
	// ReplicaAddr, when set, streams the completion log to a warm
	// standby at that address (see RunStandby), each record as soon as
	// it is made; the replication link is best-effort and never blocks
	// or fails the solve.
	ReplicaAddr string
	// Die, when non-nil, kills the event loop the instant it is
	// closed: run returns ErrDied with no fail broadcast, no final
	// commit, and no replication farewell — the in-process analogue of
	// SIGKILL for failover tests and the harness.
	Die <-chan struct{}
	// MemoryBudget, when positive, backs the authoritative table with the
	// block pager, as CheckpointPath does, with only a MemoryBudget-sized
	// working set resident: installed boundary blocks are sealed into a
	// CRC-verified spill file and heals demote to its on-disk pristine
	// region. Without CheckpointPath the spill file is a private scratch
	// file, never synced or committed, and removed after the run.
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
	// SealMismatches counts blocks whose bytes failed a CRC32C seal: a
	// result's wire seal at install time, and the audit or a spilled
	// page's seal between waves.
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
	// Checkpoints / CheckpointErrors count checkpoint commits.
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
	// ReplRecords counts the completion-log records pushed onto a live
	// stream to the standby, snapshot records included; ReplResyncs
	// counts the snapshots, one per stream (re)connect.
	ReplRecords int
	ReplResyncs int
	// PagerStats carries the spill pager's disk-traffic and recovery
	// counters when the run used a paged authoritative table
	// (MemoryBudget or CheckpointPath set); nil otherwise.
	PagerStats *pager.Stats
}

// errHalted answers a pool request the current wave gave up on; it ends
// the pool's wave and never surfaces.
var errHalted = errors.New("cluster: wave halted")

// session is one live worker connection, or a replication stream: a
// follower's adopted one, which has no writer, or a leader's own to its
// standby. A stream has no shard and no possession. All fields except
// out are owned by the event loop; the per-session reader goroutine only
// touches the conn's read half and posts events, and the per-session
// writer goroutine only drains out onto the conn's write half.
type session[E semiring.Elem] struct {
	id    int
	name  string
	conn  net.Conn
	shard int
	// possess maps a dense memory-block ID to whether the worker holds
	// its final bytes; it is nil on a stream.
	possess []bool
	// out is the bounded outbound frame queue feeding this session's
	// writer goroutine; only the event loop sends, and declareDead (also
	// on the event loop) closes it after marking the session dead.
	out chan outFrame
	// inflight is the number of dispatches outstanding on this worker.
	inflight int
	lastSeen time.Time
	dead     bool
	// ended is closed when the event loop drops a leader's stream; its
	// dialer then redials.
	ended chan struct{}
}

// outFrame is one queued outbound frame: buf holds the whole pooled
// wire frame, which the session writer sends in one Write and then
// returns to the pool, and payload is its payload.
type outFrame struct {
	typ     byte
	payload []byte
	buf     *frameBuf
}

// outboundQueueCap sizes a session's outbound queue: room for the
// welcome, a generous multiple of the dispatch pipeline depth (heal
// rounds can release and re-dispatch slots while the writer is mid
// large frame), and the done/fail release. A full queue means the
// writer has been stalled on a frame while the event loop kept
// producing — the session is declared dead rather than ever blocking
// the loop.
const outboundQueueCap = 4*maxInflight + 16

type evKind int

const (
	evConn evKind = iota
	evResult
	evPing
	evFail
	evDead
	evReplConn // a replication hello arrived on the listener
	evFenced   // the standby fenced our replication stream
	evRecord   // a replication record from the adopted stream
	evDone     // the primary finished; its stream ends
	evStream   // the dialer's welcomed stream to the standby
)

type event[E semiring.Elem] struct {
	kind evKind
	conn net.Conn
	// hello is a worker's or a replication stream's hello; an evFenced
	// carries the fencing standby's epoch in hello.Epoch.
	hello helloMsg
	// job is an evReplConn's welcome: the primary's job description.
	job  *welcomeMsg
	sess *session[E]
	msg  taskMsg
	// frame holds an evResult's or evRecord's wire frame, which msg's
	// block bytes view; the event loop returns it to the pool once the
	// event is handled.
	frame *frameBuf
	text  string
	err   error
}

type coordinator[E semiring.Elem] struct {
	opts Options
	t    *tri.Tiled[E]
	// store is the authoritative table: every block read, install and
	// demote goes through it. It is a MemStore over t, the spill pager
	// (pager) under MemoryBudget or CheckpointPath, where t is only the
	// input source and the final materialization target, or a standby's
	// replica after its takeover.
	store npdp.BlockStore[E]
	pager *pager.Pager[E]
	// ladder is the shared recovery state: block seals, the per-block
	// heal budget, and the counters it fills into healStats.
	ladder    *npdp.Ladder[E]
	healStats resilience.HealStats
	g         *sched.Graph
	shards    Sharding

	// epoch is the leadership epoch; while following, the highest epoch
	// seen.
	epoch uint32
	// follower is the follower phase's state, nil once leading.
	follower *follower[E]

	// reqs carries the pool's requests (task IDs) to the event loop,
	// buffered to the pool's slot count: each slot has at most one
	// request open, so a send never blocks. replies[id] answers task
	// id's request: nil once its result installed, errHalted when the
	// wave gave it up.
	reqs    chan int
	replies []chan error
	// queues are the per-shard FIFOs of requests waiting for a worker;
	// inflight maps each dispatched request to its session.
	queues   [][]int
	inflight map[int]*session[E]
	// gen counts each task's dispatches: the next one carries gen[id].
	gen []uint32
	// bad and fault are the current wave's detections — seal mismatches
	// under Heal, and the first store failure. Either halts the wave.
	bad   [][2]int
	fault error

	sessions  map[*session[E]]struct{}
	events    chan event[E]
	stop      chan struct{}
	writers   sync.WaitGroup
	nextSess  int
	sinceCkpt int

	// repl is the leader's replication stream to its standby, nil while
	// none is up.
	repl *session[E]

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
	defer ln.Close()
	if opts.SchedSide < 0 {
		return fmt.Errorf("cluster: scheduling-block side must be positive, got %d", opts.SchedSide)
	}
	opts = withDefaults(opts)
	g, err := sched.NewGraph(t.Blocks(), opts.SchedSide)
	if err != nil {
		return err
	}
	if opts.MemoryBudget < 0 {
		return fmt.Errorf("cluster: MemoryBudget must be non-negative, got %d", opts.MemoryBudget)
	}
	if opts.Resume && opts.CheckpointPath == "" {
		return fmt.Errorf("cluster: Resume requires CheckpointPath")
	}

	co := newCoordinator(t, opts)
	if opts.MemoryBudget > 0 || opts.CheckpointPath != "" {
		var cleanup func()
		if co.pager, cleanup, err = openPager(t, opts); err != nil {
			return err
		}
		defer cleanup()
		co.store = co.pager
	} else {
		co.store = npdp.NewMemStore(t, opts.Heal)
	}
	if err := co.lead(g, opts.Resume); err != nil {
		return err
	}
	if opts.Resume {
		opts.Logf("cluster: resumed %d/%d tasks from %s", co.stats.Resumed, len(g.Tasks), opts.CheckpointPath)
	}
	return co.serve(ctx, ln)
}

// withDefaults fills the zero values of opts' schedule, liveness timing,
// logger and epoch.
func withDefaults(opts Options) Options {
	if opts.SchedSide == 0 {
		opts.SchedSide = 1
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
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.Epoch == 0 {
		opts.Epoch = 1
	}
	return opts
}

// newCoordinator builds the event loop's phase-independent state over t;
// lead adds what leading a solve needs.
func newCoordinator[E semiring.Elem](t *tri.Tiled[E], opts Options) *coordinator[E] {
	return &coordinator[E]{
		opts:     opts,
		t:        t,
		epoch:    opts.Epoch,
		sessions: make(map[*session[E]]struct{}),
		events:   make(chan event[E], 256),
		stop:     make(chan struct{}),
	}
}

// lead readies the coordinator to lead the solve of g over its store:
// the per-task and per-shard state and the ladder, and, when the store
// already holds final blocks (a checkpoint or a replica), the count of
// resumed tasks and their seals.
func (co *coordinator[E]) lead(g *sched.Graph, resumed bool) error {
	co.g = g
	co.shards = NewSharding(g.SchedTiles, co.opts.Shards)
	co.reqs = make(chan int, g.SchedTiles)
	co.replies = make([]chan error, len(g.Tasks))
	for id := range co.replies {
		co.replies[id] = make(chan error, 1)
	}
	co.inflight = make(map[int]*session[E])
	co.gen = make([]uint32, len(g.Tasks))
	co.queues = make([][]int, co.shards.NumShards())
	co.stats.Tasks = len(g.Tasks)
	co.stats.Epoch = co.epoch
	co.ladder = npdp.NewLadder(co.store, g, true, npdp.ParallelOptions{
		Heal: co.opts.Heal, HealAttempts: co.opts.HealAttempts, HealStats: &co.healStats, Logf: co.opts.Logf,
	})
	if !resumed {
		return nil
	}
	for _, done := range npdp.Completed(co.store, g) {
		if done {
			co.stats.Resumed++
		}
	}
	return co.ladder.SealFinals()
}

// serve is the coordinator's whole life on ln: one accept loop and one
// event loop, which follows first when the coordinator is a standby,
// then the shutdown.
func (co *coordinator[E]) serve(ctx context.Context, ln net.Listener) error {
	go co.acceptLoop(ln)
	err := co.run(ctx)
	close(co.stop)
	ln.Close()
	co.closeStream()
	if co.repl != nil {
		// The standby's stream shuts down with the workers' sessions.
		co.sessions[co.repl] = struct{}{}
	}
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
	case <-time.After(co.opts.DeadlineAfter):
	}
	for sess := range co.sessions {
		sess.conn.Close()
	}
	if co.opts.Stats != nil {
		co.stats.HealRounds = co.healStats.HealRounds
		co.stats.RecomputedTasks = co.healStats.RecomputedTasks
		if co.healStats.CheckpointFallback {
			co.stats.PristineRestarts = 1
		}
		if co.pager != nil {
			ps := co.pager.Stats()
			co.stats.PagerStats = &ps
		}
		*co.opts.Stats = co.stats
	}
	return err
}

// run is the single-goroutine event loop; every piece of solve state is
// confined to it. A standby follows first (follow). Leading, it runs
// waves until the ladder's Step, between waves, reports the solve done
// or failed; a heal's demoted cone runs in the next wave. With a
// CheckpointPath the final commit runs however the run ends — done,
// failed or cancelled — except on ErrDied, which must leave only what a
// SIGKILL leaves.
func (co *coordinator[E]) run(ctx context.Context) (err error) {
	if co.follower != nil {
		if err := co.follow(ctx); err != nil {
			return err
		}
	}
	if co.opts.ReplicaAddr != "" {
		co.writers.Add(1)
		go co.runReplicator(ctx)
	}
	var finalize func() error
	if p := co.pager; p != nil {
		// The caller's table gets the materialized result inside the
		// ladder's Step, so a final page that reads back corrupt only
		// here heals like any other detection.
		finalize = func() error {
			if err := p.Materialize(co.t); err != nil {
				return fmt.Errorf("cluster: materializing solved table from spill: %w", err)
			}
			return nil
		}
	}
	if co.opts.CheckpointPath != "" {
		defer func() {
			if !errors.Is(err, ErrDied) {
				co.commit()
			}
		}()
	}
	ticker := time.NewTicker(co.opts.HeartbeatEvery)
	defer ticker.Stop()
	for {
		if err := co.wave(ctx, ticker.C); err != nil {
			return err
		}
		done := npdp.Completed(co.store, co.g)
		seen := co.healStats.CorruptBlocks + len(co.bad)
		ids, err := co.ladder.Step(co.fault, co.bad, finalize)
		// Step escalates the wave's mismatches together with whatever its
		// own audit or a page-in found; those count as mismatches too.
		co.stats.SealMismatches += max(co.healStats.CorruptBlocks-seen, 0)
		if err != nil {
			co.broadcastAbort(err)
			return err
		}
		if ids == nil {
			for sess := range co.sessions {
				co.send(sess, frameDone, nil)
			}
			if co.repl != nil {
				co.send(co.repl, frameDone, nil)
			}
			return nil
		}
		co.reset(ids, done)
	}
}

// wave runs every task not yet final in the store through one
// sched.RunPoolCtx with a slot per scheduling column: ready tasks have
// pairwise distinct rows, so the pool never holds one back and the loop
// sees the whole ready set. The pool's task body is request; the loop
// serves requests and events until the pool drains. A detection halts
// the wave (halt); Die, cancellation and fatal errors abandon it. Either
// way the pool is joined before wave returns.
func (co *coordinator[E]) wave(ctx context.Context, tick <-chan time.Time) error {
	co.bad, co.fault = nil, nil
	po := sched.PoolRunOptions{Completed: npdp.Completed(co.store, co.g)}
	drained := make(chan error, 1)
	go func() {
		// The loop owns cancellation: it answers every request, so the
		// pool drains when the loop stops it, never on its own.
		drained <- sched.RunPoolCtx(context.WithoutCancel(ctx), co.g, co.g.SchedTiles, po, co.request)
	}()
	for {
		var err error
		select {
		case <-drained:
			return nil
		case id := <-co.reqs:
			q := co.taskShard(id)
			co.queues[q] = append(co.queues[q], id)
			co.fillAll()
		case <-co.opts.Die:
			// Chaos kill: no broadcast, no commit, no farewell. The
			// cluster must discover the death the hard way.
			co.abandon(drained)
			return ErrDied
		case <-ctx.Done():
			co.abandon(drained)
			co.broadcastAbort(errors.New("coordinator context canceled"))
			return ctx.Err()
		case now := <-tick:
			err = co.tick(now)
		case ev := <-co.events:
			err = co.handle(ev)
		}
		if err != nil {
			co.abandon(drained)
			co.broadcastAbort(err)
			return err
		}
	}
}

// request is the pool's task body: it hands the task to the event loop
// and waits for the answer. Any error ends the pool's wave; the pool's
// own error is never read — the loop knows why it stopped the wave.
func (co *coordinator[E]) request(_ int, task sched.Task) error {
	co.reqs <- task.ID
	return <-co.replies[task.ID]
}

// halt stops new dispatches for the current wave after a detection:
// every queued request is answered, so the pool drains once the results
// in flight are in (they still install).
func (co *coordinator[E]) halt() {
	for s, q := range co.queues {
		for _, id := range q {
			co.replies[id] <- errHalted
		}
		co.queues[s] = q[:0]
	}
}

// abandon ends the wave at once: it answers every open request, queued
// or in flight, then every late one until the pool has drained.
func (co *coordinator[E]) abandon(drained <-chan error) {
	co.halt()
	for id := range co.inflight {
		co.replies[id] <- errHalted
	}
	for {
		select {
		case id := <-co.reqs:
			co.replies[id] <- errHalted
		case <-drained:
			return
		}
	}
}

// storeFault records a store failure met while dispatching or
// installing and halts the wave; Step heals a corrupt final page and
// returns anything else.
func (co *coordinator[E]) storeFault(err error) {
	co.opts.Logf("cluster: authoritative table: %v", err)
	if co.fault == nil {
		co.fault = fmt.Errorf("cluster: authoritative table failed: %w", err)
	}
	co.halt()
}

// release frees sess's pipeline slot for task id and answers its request.
func (co *coordinator[E]) release(sess *session[E], id int, err error) {
	delete(co.inflight, id)
	sess.inflight--
	co.replies[id] <- err
}

// snapshotRecords renders the full completion log as of now: an rsync
// record, then an rdone record per completed task with its blocks
// encoded from the store, as dispatch encodes them.
func (co *coordinator[E]) snapshotRecords() []*frameBuf {
	out := []*frameBuf{newRecord(frameReplSync, co.epoch, 0)}
	done := npdp.Completed(co.store, co.g)
	for _, task := range co.g.Tasks {
		if !done[task.ID] {
			continue
		}
		fb := getFrame()
		frame := beginTaskFrame(fb.b, frameReplDone, co.epoch, co.gen[task.ID], task.ID)
		own := task.MemoryBlockOrder()
		var err error
		for _, mb := range own {
			var cells []E
			if cells, err = co.store.Acquire(mb[0], mb[1]); err != nil {
				// Replication is best-effort: omit this task's record and
				// let the standby recompute it after takeover rather than
				// stall the solve on a spill read.
				co.opts.Logf("cluster: snapshot read of block (%d,%d) failed: %v; omitting task %d", mb[0], mb[1], err, task.ID)
				break
			}
			frame = appendSealedBlock(frame, mb[0], mb[1], cells)
			co.store.Release(mb[0], mb[1])
		}
		fb.b = frame
		if err != nil {
			putFrame(fb)
			continue
		}
		fb.b = endTaskFrame(frame, len(own))
		out = append(out, fb)
	}
	return out
}

// handle processes one event; an error ends the run.
func (co *coordinator[E]) handle(ev event[E]) error {
	switch {
	case co.follower != nil && ev.sess != nil:
		// A follower's only sessions are replication streams.
		return co.tail(ev)
	case ev.sess != nil && ev.sess.possess == nil:
		return co.stream(ev)
	}
	switch ev.kind {
	case evConn:
		return co.admit(ev.conn, ev.hello)
	case evReplConn:
		return co.handleReplConn(ev.conn, ev.hello, *ev.job)
	case evPing:
		if !ev.sess.dead {
			ev.sess.lastSeen = time.Now()
		}
	case evFail:
		co.opts.Logf("cluster: worker %s failed: %s", ev.sess.name, ev.text)
		co.declareDead(ev.sess, errors.New(ev.text))
	case evDead:
		co.declareDead(ev.sess, ev.err)
	case evRecord, evDone, evFenced:
		putFrame(ev.frame)
		if ev.sess == nil {
			// The dialer's handshake was fenced: the standby we replicate
			// to has become the leader, and we are deposed. Terminal — our
			// epoch can never win again.
			return &ErrEpochFenced{Epoch: co.epoch, Current: ev.hello.Epoch, Role: "coordinator"}
		}
		co.declareDead(ev.sess, errors.New("replication frame on a worker session"))
	case evResult:
		defer putFrame(ev.frame)
		if ev.sess.dead {
			co.stats.StaleResults++
			return nil
		}
		ev.sess.lastSeen = time.Now()
		return co.install(ev.sess, ev.msg)
	}
	return nil
}

// tick runs the heartbeat pass: deadline dead workers, ping the rest and
// an idle stream to the standby, and bound the zero-worker wait. It runs
// only inside a wave, so tasks are always outstanding.
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
	// The standby sends nothing, so its stream has no deadline; the
	// pings renew its lease.
	if co.repl != nil && len(co.repl.out) == 0 {
		co.send(co.repl, framePing, nil)
	}
	if len(co.sessions) == 0 {
		if co.noWorkerSince.IsZero() {
			co.noWorkerSince = now
		} else if now.Sub(co.noWorkerSince) > co.opts.WorkerlessAfter {
			left := 0
			for _, done := range npdp.Completed(co.store, co.g) {
				if !done {
					left++
				}
			}
			return fmt.Errorf("%w for %v with %d/%d tasks outstanding",
				ErrNoWorkers, co.opts.WorkerlessAfter, left, len(co.g.Tasks))
		}
	} else {
		co.noWorkerSince = time.Time{}
	}
	return nil
}

// acceptLoop is the one accept path, in both phases: each connection's
// hello is read off the event loop (handshake) and posted as an event.
// When the listener closes at shutdown, it waits for the stop and for
// the handshakes in flight, the only posters of connections, and then
// closes every connection whose event a post left in the buffer after
// the event loop stopped reading it: post's select may pick the
// buffer's free slot over the closed stop.
func (co *coordinator[E]) acceptLoop(ln net.Listener) {
	var handshakes sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			break // listener closed at shutdown
		}
		handshakes.Add(1)
		go func() {
			defer handshakes.Done()
			co.handshake(conn)
		}()
	}
	<-co.stop
	handshakes.Wait()
	for {
		select {
		case ev := <-co.events:
			if ev.conn != nil {
				ev.conn.Close()
			}
		default:
			return
		}
	}
}

// handshake reads conn's hello and posts it: a worker's hello as evConn,
// a replication hello, with its welcome, as evReplConn. A hello from
// another protocol version gets a reasoned rejection, so the peer fails
// fast and loud instead of seeing a bare close.
func (co *coordinator[E]) handshake(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, payload, err := readFrame(conn)
	if err != nil {
		conn.Close()
		return
	}
	ev := event[E]{kind: evConn, conn: conn}
	switch typ {
	case frameHello:
		ev.hello, err = decodeHello(payload)
	case frameReplHello:
		ev.kind, ev.job = evReplConn, new(welcomeMsg)
		ev.hello, *ev.job, err = decodeReplHello(payload)
	default:
		conn.Close()
		return
	}
	if err != nil {
		var vErr *ErrProtocolVersion
		if errors.As(err, &vErr) {
			conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
			writeFrame(conn, frameFail, failMsg{Reason: err.Error()}.encode())
		}
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	co.post(ev)
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
// least-loaded shard and starts its reader. A follower answers standby,
// which is retryable: the worker's rotation keeps probing. A worker that
// has been welcomed at a higher epoch than ours proves we are deposed:
// the run aborts, because any state we install from here on diverges
// from the real leader's.
func (co *coordinator[E]) admit(conn net.Conn, hello helloMsg) error {
	if co.follower != nil {
		co.reply(conn, frameStandby, nil)
		return nil
	}
	if hello.Epoch > co.epoch {
		co.opts.Logf("cluster: worker %s has seen epoch %d > ours (%d); we are deposed", hello.Name, hello.Epoch, co.epoch)
		co.reply(conn, frameStandby, nil)
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
		out:      make(chan outFrame, outboundQueueCap),
		lastSeen: time.Now(),
	}
	co.nextSess++
	co.writers.Add(1)
	go co.writeLoop(sess)
	co.sessions[sess] = struct{}{}
	if len(co.sessions) > co.stats.PeakWorkers {
		co.stats.PeakWorkers = len(co.sessions)
	}
	co.opts.Logf("cluster: worker %s joined (shard %d of %d)", sess.name, shard, co.shards.NumShards())
	if !co.send(sess, frameWelcome, co.welcome(shard).encode()) {
		return nil
	}
	go co.readLoop(sess, 2*co.opts.DeadlineAfter)
	co.fill(sess)
	return nil
}

// welcome is the job description for shard slot: what a worker needs to
// rebuild the graph and size its table, and what a standby needs to take
// the solve over with identical geometry. It reads only state fixed once
// the coordinator leads, so any goroutine started after that may call
// it.
func (co *coordinator[E]) welcome(slot int) welcomeMsg {
	var e E
	return welcomeMsg{
		ElemBytes:   tableio.ElemWidth(e),
		N:           co.t.Len(),
		Tile:        co.t.Tile(),
		SchedSide:   co.opts.SchedSide,
		Shards:      co.shards.NumShards(),
		Slot:        slot,
		HeartbeatMS: uint32(co.opts.HeartbeatEvery / time.Millisecond),
		DeadlineMS:  uint32(co.opts.DeadlineAfter / time.Millisecond),
		Epoch:       co.epoch,
	}
}

// handleReplConn judges a replication hello. A leader fences a stale
// pusher (a deposed primary that has not yet noticed), and a pusher from
// the future means we are the deposed one. A follower refuses a stream
// of another geometry, naming both, fences one below the highest epoch
// seen, and adopts any other: the previous stream closes, the replica is
// cleared, which is safe because every stream opens with a full resync,
// the lease restarts, and the stream's reader starts once the
// replication welcome is written.
func (co *coordinator[E]) handleReplConn(conn net.Conn, hello helloMsg, job welcomeMsg) error {
	f := co.follower
	var g *sched.Graph
	var err error
	if f != nil {
		var e E
		g, err = sched.NewGraph(co.t.Blocks(), job.SchedSide)
		if w := tableio.ElemWidth(e); job.N != co.t.Len() || job.Tile != co.t.Tile() || job.ElemBytes != w {
			err = fmt.Errorf("standby geometry n=%d tile=%d elem=%d does not match stream n=%d tile=%d elem=%d",
				co.t.Len(), co.t.Tile(), w, job.N, job.Tile, job.ElemBytes)
		}
	}
	switch {
	case f == nil && hello.Epoch > co.epoch:
		conn.Close()
		return &ErrEpochFenced{Epoch: co.epoch, Current: hello.Epoch, Role: "coordinator"}
	case err != nil:
		co.reply(conn, frameFail, failMsg{Reason: err.Error()}.encode())
		return nil
	case f == nil || hello.Epoch < co.epoch:
		co.fence(conn, hello.Name, hello.Epoch)
		return nil
	}
	co.closeStream()
	clearReplica(f.replica)
	co.epoch = hello.Epoch
	s := &session[E]{name: hello.Name, conn: conn, lastSeen: time.Now()}
	f.stream, f.job, f.g, f.stats.ReplicatedTasks = s, job, g, 0
	co.opts.Logf("cluster: standby tailing %s at epoch %d (n=%d tile=%d shards=%d)",
		hello.Name, hello.Epoch, job.N, job.Tile, job.Shards)
	// A read parked past the lease is a dead primary by this protocol's
	// own definition, so the lease is the reader's rolling deadline.
	deadline, window := time.Now().Add(co.opts.DeadlineAfter), f.lease
	go func() {
		conn.SetWriteDeadline(deadline)
		if writeFrame(conn, frameReplWelcome, encodeEpoch(hello.Epoch)) != nil {
			conn.Close()
		}
		co.readLoop(s, window)
	}()
	return nil
}

// fence refuses a replication stream at a stale epoch, or a record at
// another epoch than its stream's: conn gets a frame carrying our epoch
// and is closed. The phase's fenced-write counter counts it.
func (co *coordinator[E]) fence(conn net.Conn, name string, epoch uint32) {
	if co.follower != nil {
		co.follower.stats.FencedWrites++
	} else {
		co.stats.FencedWrites++
	}
	co.opts.Logf("cluster: fenced replication stream %q at stale epoch %d (current %d)", name, epoch, co.epoch)
	co.reply(conn, frameFenced, encodeEpoch(co.epoch))
}

// reply writes one frame to conn off the event loop, then closes it.
func (co *coordinator[E]) reply(conn net.Conn, typ byte, payload []byte) {
	deadline := time.Now().Add(co.opts.DeadlineAfter)
	go func() {
		conn.SetWriteDeadline(deadline)
		writeFrame(conn, typ, payload)
		conn.Close()
	}()
}

// readLoop is a session's reader goroutine: readFrames posts each frame's
// event to the event loop as it arrives, and the event that ended the
// stream goes last.
func (co *coordinator[E]) readLoop(sess *session[E], window time.Duration) {
	co.post(co.readFrames(sess, window))
}

// readFrames reads a session's frames — a worker's, or a replication
// stream's — through a buffer over a rolling read deadline of window, a
// backstop only: liveness is judged by the event loop against lastSeen.
// A window of 0 sets no deadline. Each result or record frame lands in
// a pooled buffer that passes to the event loop with it; every other
// frame reuses the buffer the reader holds. It returns the event that
// ends the stream: a death, the peer's own failure report, the
// primary's done, or a standby's fence.
func (co *coordinator[E]) readFrames(sess *session[E], window time.Duration) event[E] {
	br := bufio.NewReader(&sessionReader{conn: sess.conn, window: window})
	fb := getFrame()
	defer func() { putFrame(fb) }()
	for {
		typ, payload, frame, err := readFrameInto(br, fb.b)
		fb.b = frame
		if err != nil {
			return event[E]{kind: evDead, sess: sess, err: err}
		}
		switch typ {
		case frameResult:
			msg, err := decodeTaskMsg(payload)
			if err != nil {
				return event[E]{kind: evDead, sess: sess, err: err}
			}
			co.post(event[E]{kind: evResult, sess: sess, msg: msg, frame: fb})
			fb = getFrame()
		case frameReplDone, frameReplReset, frameReplSync:
			msg, err := decodeTaskMsg(payload)
			if err != nil {
				return event[E]{kind: evDead, sess: sess, err: err}
			}
			co.post(event[E]{kind: evRecord, sess: sess, msg: msg, frame: fb})
			fb = getFrame()
		case framePing:
			co.post(event[E]{kind: evPing, sess: sess})
		case frameFenced:
			cur, err := decodeEpoch(payload)
			if err != nil {
				return event[E]{kind: evDead, sess: sess, err: err}
			}
			return event[E]{kind: evFenced, sess: sess, hello: helloMsg{Epoch: cur},
				err: fmt.Errorf("fenced at epoch %d", cur)}
		case frameFail:
			f, _ := decodeFail(payload)
			return event[E]{kind: evFail, sess: sess, text: f.Reason}
		case frameDone:
			return event[E]{kind: evDone, sess: sess}
		default:
			return event[E]{kind: evDead, sess: sess, err: fmt.Errorf("unexpected frame type %d", typ)}
		}
	}
}

// send frames payload into a pooled buffer and queues it for the
// session's writer goroutine. Returns whether the frame was queued.
func (co *coordinator[E]) send(sess *session[E], typ byte, payload []byte) bool {
	return co.queue(sess, newFrame(typ, payload))
}

// queue hands a built frame to the session's writer goroutine without
// ever blocking the event loop; a full queue means the writer has
// stalled past what the pipeline can legitimately produce, and the
// session is declared dead. A frame that is not queued goes back to the
// pool. Returns whether the frame was queued.
func (co *coordinator[E]) queue(sess *session[E], fb *frameBuf) bool {
	if sess.dead {
		putFrame(fb)
		return false
	}
	select {
	case sess.out <- outFrame{typ: fb.b[0], payload: framePayload(fb.b), buf: fb}:
		return true
	default:
		putFrame(fb)
		co.declareDead(sess, fmt.Errorf("outbound queue full (%d frames): writer stalled", cap(sess.out)))
		return false
	}
}

// writeLoop is a session's writer goroutine: it drains the outbound
// queue onto the conn, each frame in one Write under a write deadline
// and then back to the pool, so a slow or partitioned worker can never
// stall the event loop — dispatch frames
// run to many MB, and a synchronous write would block heartbeats and
// dispatch to every other worker for up to the deadline per frame. A
// write error posts the death and abandons the rest of the queue; a
// closed queue (declareDead or shutdown) drains what was accepted,
// then exits.
func (co *coordinator[E]) writeLoop(sess *session[E]) {
	defer co.writers.Done()
	for f := range sess.out {
		sess.conn.SetWriteDeadline(time.Now().Add(co.opts.DeadlineAfter))
		_, err := sess.conn.Write(f.buf.b)
		putFrame(f.buf)
		if err != nil {
			co.post(event[E]{kind: evDead, sess: sess, err: fmt.Errorf("write: %w", err)})
			return
		}
	}
}

// declareDead removes a session and puts its in-flight requests back at
// the front of their shard FIFOs — the death-recovery rung of the
// ladder; the pool never sees a death. Their next dispatch carries a
// higher generation, which makes any result the dead worker already
// produced recognizably stale on its own (defense in depth beyond the
// closed conn and the dead-session drop in handle). The standby's
// stream is dropped the same way, and its dialer redials.
func (co *coordinator[E]) declareDead(sess *session[E], cause error) {
	if sess.dead {
		return
	}
	sess.dead = true
	sess.conn.Close() // a zombie's late frames can never arrive
	close(sess.out)   // the writer drains what was queued, then exits
	if sess == co.repl {
		co.repl = nil
		close(sess.ended)
		co.opts.Logf("cluster: replica stream lost: %v", cause)
		return
	}
	delete(co.sessions, sess)
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
		q := co.taskShard(id)
		co.queues[q] = append([]int{id}, co.queues[q]...)
	}
	co.stats.Redispatched += len(requeued)
	co.opts.Logf("cluster: worker %s dead (%v); requeued %d in-flight tasks", sess.name, cause, len(requeued))
	co.fillAll()
}

// taskShard maps a task to the shard owning its scheduling column.
func (co *coordinator[E]) taskShard(id int) int { return co.shards.Of(co.g.Tasks[id].Bj) }

// fill pipelines dispatches to one worker up to maxInflight: its own
// shard's queue first, then work stealing from the lowest-index
// non-empty queue so a dead shard's backlog drains through survivors.
func (co *coordinator[E]) fill(sess *session[E]) {
	for !sess.dead && sess.inflight < maxInflight {
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
		co.dispatch(sess, id)
	}
}

// fillAll tops up every live worker, lowest session ID first for
// deterministic test schedules. A halted wave dispatches nothing: it
// answers every queued request instead.
func (co *coordinator[E]) fillAll() {
	if len(co.bad) > 0 || co.fault != nil {
		co.halt()
		return
	}
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
// the paper's SPE procedure, lifted to the wire: each block is encoded
// once, between its store Acquire and Release, straight into the pooled
// frame that carries it. In paged mode the bytes come through the pager
// (resident frame or CRC-verified page-in); a page-in failure gives the
// request up and halts the wave.
func (co *coordinator[E]) dispatch(sess *session[E], id int) {
	task := co.g.Tasks[id]
	ops := operandBlocks(task)
	blocks := append(ops, task.MemoryBlockOrder()...)
	var e E
	blockBytes := tableio.ElemWidth(e) * co.t.Tile() * co.t.Tile()
	size := frameHeaderLen + taskHeaderLen + frameTrailerLen
	for _, mb := range blocks {
		if !sess.possess[co.t.BlockID(mb[0], mb[1])] {
			size += blockHeaderLen + blockBytes
		}
	}
	fb := getFrame()
	frame := beginTaskFrame(slices.Grow(fb.b[:0], size), frameDispatch, co.epoch, co.gen[id], id)
	nblocks := 0
	var marked []int
	for i, mb := range blocks {
		bid := co.t.BlockID(mb[0], mb[1])
		if sess.possess[bid] {
			continue
		}
		cells, err := co.store.Acquire(mb[0], mb[1])
		if err != nil {
			// Nothing was sent: unmark possession claimed for this message.
			for _, bid := range marked {
				sess.possess[bid] = false
			}
			fb.b = frame
			putFrame(fb)
			co.replies[id] <- errHalted
			co.storeFault(fmt.Errorf("paging in blocks for task %d: %w", id, err))
			return
		}
		frame = appendSealedBlock(frame, mb[0], mb[1], cells)
		co.store.Release(mb[0], mb[1])
		nblocks++
		if i < len(ops) {
			// Operands are final; own pristine blocks are not — the
			// worker overwrites them, so they are never "possessed".
			sess.possess[bid] = true
			marked = append(marked, bid)
		}
		co.stats.BlocksStreamed++
		co.stats.BytesStreamed += int64(blockBytes)
	}
	fb.b = endTaskFrame(frame, nblocks)
	co.gen[id]++
	co.inflight[id] = sess
	sess.inflight++
	co.stats.Dispatched++
	co.queue(sess, fb)
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

// install audits and installs one result. A result for any dispatch
// other than the one its task's request waits on is stale — a
// re-dispatched task's old answer — and is dropped without error; a CRC
// mismatch is transport or memory corruption and halts the wave for the
// ladder.
func (co *coordinator[E]) install(sess *session[E], msg taskMsg) error {
	// The epoch fence comes before everything else: a result produced
	// under another leader's epoch (a pre-failover dispatch replayed at
	// us, or a frame laundered through a deposed coordinator) must not
	// even reach the generation logic. No pipeline slot is released —
	// this session never owned a dispatch for that frame.
	if msg.Epoch != co.epoch {
		co.stats.FencedWrites++
		co.opts.Logf("cluster: fenced result from %s: epoch %d, current %d", sess.name, msg.Epoch, co.epoch)
		return nil
	}
	id := msg.TaskID
	if id < 0 || id >= len(co.g.Tasks) {
		co.declareDead(sess, fmt.Errorf("result for unknown task %d", id))
		return nil
	}
	if co.inflight[id] != sess || msg.Gen+1 != co.gen[id] {
		co.stats.StaleResults++
		return nil
	}
	task := co.g.Tasks[id]
	if err := ownBlocks(co.t, task, msg.Blocks); err != nil {
		co.declareDead(sess, fmt.Errorf("result for task %d %v", id, err))
		return nil
	}
	for _, wb := range msg.Blocks {
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
				return fmt.Errorf("cluster: installing boundary block from worker %s: %w", sess.name, mismatch)
			}
			co.release(sess, id, errHalted)
			co.bad = append(co.bad, [2]int{wb.Bi, wb.Bj})
			co.halt()
			return nil
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
			// worker's fault. The task runs again in a later wave; blocks
			// already installed re-seal then.
			co.release(sess, id, errHalted)
			co.storeFault(err)
			return nil
		}
		co.ladder.Seal(wb.Bi, wb.Bj, wb.CRC)
		// A clean install resets the block's heal budget: escalation is
		// for a block that fails *consecutively* after recompute, not one
		// that accumulates unlucky rolls across many cone re-executions.
		co.ladder.Clean(wb.Bi, wb.Bj)
		sess.possess[co.t.BlockID(wb.Bi, wb.Bj)] = true
	}
	co.release(sess, id, nil)
	co.stats.Accepted++
	if co.repl != nil {
		// The standby's record is the audited result under its own frame
		// kind. The result's frame goes back to the pool once handle
		// returns, so the record frame takes the one copy of its blocks.
		fb := getFrame()
		frame := msg.encodeBlocks(beginTaskFrame(fb.b, frameReplDone, co.epoch, msg.Gen, id))
		fb.b = endTaskFrame(frame, len(msg.Blocks))
		co.push(fb)
	}
	if co.opts.OnTaskDone != nil {
		co.opts.OnTaskDone(co.stats.Accepted, task)
	}
	co.maybeCheckpoint()
	co.fill(sess)
	return nil
}

// ownBlocks checks that blocks are exactly task's own memory blocks, in
// MemoryBlockOrder, each a whole block of t's geometry: the structure
// install demands of a result and a standby of an rdone record.
func ownBlocks[E semiring.Elem](t *tri.Tiled[E], task sched.Task, blocks []wireBlock) error {
	own := task.MemoryBlockOrder()
	if len(blocks) != len(own) {
		return fmt.Errorf("carries %d blocks, want %d", len(blocks), len(own))
	}
	var e E
	for i, wb := range blocks {
		if wb.Bi != own[i][0] || wb.Bj != own[i][1] || len(wb.Raw) != tableio.ElemWidth(e)*t.Tile()*t.Tile() {
			return fmt.Errorf("block %d malformed", i)
		}
	}
	return nil
}

// reset is the network half of a heal, run between waves after Step
// demoted ids: no worker keeps a copy of their blocks, and the standby
// un-does those that were complete (done, read before the demote).
func (co *coordinator[E]) reset(ids []int, done []bool) {
	for _, id := range ids {
		mbs := co.g.Tasks[id].MemoryBlockOrder()
		for _, mb := range mbs {
			bid := co.t.BlockID(mb[0], mb[1])
			for sess := range co.sessions {
				sess.possess[bid] = false
			}
		}
		if done[id] && co.repl != nil {
			co.push(newRecord(frameReplReset, co.epoch, id))
		}
	}
}

// maybeCheckpoint runs a periodic commit every CheckpointEvery accepted
// tasks.
func (co *coordinator[E]) maybeCheckpoint() {
	if co.opts.CheckpointPath == "" {
		return
	}
	every := co.opts.CheckpointEvery
	if every <= 0 {
		every = npdp.DefaultCheckpointEvery
	}
	if co.sinceCkpt++; co.sinceCkpt >= every {
		co.sinceCkpt = 0
		co.commit()
	}
}

// commit commits the checkpoint through the ladder's verified writer
// (npdp.Ladder.Commit), the one the executor uses.
func (co *coordinator[E]) commit() {
	if err := co.ladder.Commit(); err != nil {
		co.stats.CheckpointErrors++
		co.opts.Logf("cluster: checkpoint commit failed: %v", err)
		return
	}
	co.stats.Checkpoints++
}

// openPager makes the paged authoritative table (pager.OpenSolve): the
// checkpoint when there is a CheckpointPath, a private scratch spill
// otherwise, created from t. Its frames hold MemoryBudget bytes of
// blocks, or every block when that is 0.
func openPager[E semiring.Elem](t *tri.Tiled[E], opts Options) (*pager.Pager[E], func(), error) {
	m := t.Blocks()
	popts := pager.Options{Frames: m * (m + 1) / 2, Logf: opts.Logf}
	if opts.MemoryBudget > 0 {
		var e E
		popts.Frames = int(opts.MemoryBudget / (int64(t.Tile())*int64(t.Tile())*int64(tableio.ElemWidth(e)) + 4))
	}
	p, done, err := pager.OpenSolve(opts.CheckpointPath, opts.Resume, t.Len(), t.Tile(), popts,
		func(path string, popts pager.Options) (*pager.Pager[E], error) { return pager.Create(path, t, popts) })
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: %w", err)
	}
	return p, done, nil
}

// broadcastAbort ends the run toward the workers and the standby. The
// standby is told why the run failed, and so is every worker, so they
// exit instead of reconnecting into a void — unless we were deposed: a
// fenced abort tells the workers frameFenced with the winning epoch, a
// re-home signal, since their solve is still alive under the new leader.
func (co *coordinator[E]) broadcastAbort(err error) {
	typ, payload := frameFail, failMsg{Reason: err.Error()}.encode()
	if co.repl != nil {
		co.send(co.repl, typ, payload)
	}
	var fenced *ErrEpochFenced
	if errors.As(err, &fenced) {
		typ, payload = frameFenced, encodeEpoch(fenced.Current)
	}
	for sess := range co.sessions {
		co.send(sess, typ, payload)
	}
}
