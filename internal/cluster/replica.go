package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"cellnpdp/internal/npdp"
	"cellnpdp/internal/resilience"
	"cellnpdp/internal/sched"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tableio"
	"cellnpdp/internal/tri"
)

// Coordinator high availability: a warm standby tails the primary's
// completion log and takes over its wavefront when the primary goes
// silent. A standby is a coordinator in its follower phase: the value,
// listener, accept loop and event loop it follows with are the ones it
// leads with after a takeover. The direction of replication is
// primary-dials-standby — the primary is the only side that knows a
// solve exists — and the stream speaks the task protocol: a replication
// hello (a hello, then the welcome a worker would get), then one task
// message per completion-log record, with pings renewing the standby's
// lease while the wavefront is quiet. An rdone record is a result frame
// under its own kind; rreset and rsync carry no blocks. On the primary
// the stream is a session of the event loop, as a worker's connection
// is: a dialer handshakes and hands it over, the loop queues a snapshot
// (an rsync, then an rdone per completed task), install and reset push
// each record as they make it, tick pings it, and the run's done or fail
// frame goes to it as to the workers. The follower reads the stream
// with the reader worker sessions use, checks each rdone the way install
// checks a worker's result, and writes its blocks into a replica: a
// block store over its own table, which it leads on after a takeover.
//
// The failover ladder (DESIGN.md §10):
//
//	lease expiry   → the adopted stream was silent (no records, no
//	                 pings) for LeaseAfter; the primary is presumed dead
//	epoch bump     → the follower leads at the highest epoch seen + 1;
//	                 every frame it emits carries the new epoch
//	worker re-home → workers' reconnect rotation reaches the standby's
//	                 address; their hellos carry the highest epoch seen,
//	                 so a zombie primary that answers first deposes
//	                 itself instead of splitting the brain
//	resume         → the replica's final blocks pre-complete every
//	                 fully-replicated task; the remaining wavefront
//	                 re-dispatches from pristine bytes and the solve
//	                 finishes bit-identical (a task's blocks are
//	                 installed and demoted together, never in part)

// runReplicator is the primary's dialer: it keeps one replication
// stream to the standby up. A connection the standby welcomes is handed
// to the event loop, which pushes it its snapshot and then every record
// as it is made, and the dialer redials once the loop has dropped it.
// Replication is best-effort — a dead standby costs the solve nothing
// but log lines. A fence deposes the coordinator. A standby's refusal
// ends replication: the standby holds another geometry or speaks
// another protocol version, and every redial would hear the same
// answer, so the solve runs on unreplicated, as with a standby that
// never answers.
func (co *coordinator[E]) runReplicator(ctx context.Context) {
	defer co.writers.Done()
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		<-co.stop
		cancel()
	}()
	var d net.Dialer
	backoff := resilience.RetryPolicy{BaseDelay: 100 * time.Millisecond, Jitter: true}
	attempt := 0
	for {
		conn, err := d.DialContext(rctx, "tcp", co.opts.ReplicaAddr)
		if err != nil {
			attempt++
			if attempt == 1 || attempt%8 == 0 {
				co.opts.Logf("cluster: replica dial failed (attempt %d): %v", attempt, err)
			}
			if !sleepCtx(rctx, backoff.Backoff(attempt)) {
				return
			}
			continue
		}
		attempt = 0
		s, err := co.replHandshake(conn)
		if err != nil {
			conn.Close()
		}
		var fenced *ErrEpochFenced
		switch {
		case err == nil:
			co.post(event[E]{kind: evStream, conn: conn, sess: s})
			select {
			case <-s.ended:
			case <-co.stop:
				// The event loop has exited. A stream it never adopted is
				// ours to close: its event may still sit in the buffer.
				if s.out == nil {
					conn.Close()
				}
				return
			}
		case errors.As(err, &fenced):
			co.post(event[E]{kind: evFenced, hello: helloMsg{Epoch: fenced.Current}})
			return
		case errors.Is(err, errReplRefused):
			co.opts.Logf("%v; replication is off for the rest of the solve", err)
			return
		default:
			co.opts.Logf("cluster: replica handshake failed: %v", err)
		}
		if !sleepCtx(rctx, backoff.Backoff(1)) {
			return
		}
	}
}

// errReplRefused wraps a standby's reasoned refusal of a replication
// hello.
var errReplRefused = errors.New("cluster: standby rejected replication")

// replHandshake sends the replication hello on conn and reads the
// standby's answer. A welcome returns the stream's session, for the
// event loop to adopt; a fence returns *ErrEpochFenced, and a refusal
// errReplRefused.
func (co *coordinator[E]) replHandshake(conn net.Conn) (*session[E], error) {
	hello := append(helloMsg{Epoch: co.epoch, Name: "primary"}.encode(), co.welcome(0).encode()...)
	conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	if err := writeFrame(conn, frameReplHello, hello); err != nil {
		return nil, err
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, payload, err := readFrame(conn)
	if err != nil {
		return nil, err
	}
	switch typ {
	case frameReplWelcome:
		return &session[E]{name: "standby", conn: conn, ended: make(chan struct{})}, nil
	case frameFenced:
		cur, _ := decodeEpoch(payload)
		return nil, &ErrEpochFenced{Epoch: co.epoch, Current: cur, Role: "coordinator"}
	case frameFail:
		f, _ := decodeFail(payload)
		return nil, fmt.Errorf("%w: %s", errReplRefused, f.Reason)
	}
	return nil, fmt.Errorf("cluster: expected replication welcome, got frame type %d", typ)
}

// openStream adopts the dialer's welcomed stream s as a session of the
// event loop, with a writer and a reader, and queues its snapshot. From
// then on install and reset push each record onto it as they make it,
// tick pings it while its queue is empty, and the run's done or fail
// frame goes to it as to the workers. A full queue, like any frame the
// standby sends but a fence, drops it. The queue holds a whole snapshot
// (the rsync and at most one record per task) with a worker queue's
// room to spare, so a snapshot alone never drops the stream.
func (co *coordinator[E]) openStream(s *session[E]) {
	s.out = make(chan outFrame, len(co.g.Tasks)+outboundQueueCap)
	co.repl = s
	co.writers.Add(1)
	go co.writeLoop(s)
	go co.readLoop(s, 0)
	co.stats.ReplResyncs++
	for _, fb := range co.snapshotRecords() {
		co.push(fb)
	}
}

// push queues one completion-log record on the standby's stream.
func (co *coordinator[E]) push(fb *frameBuf) {
	if co.queue(co.repl, fb) {
		co.stats.ReplRecords++
	}
}

// stream handles an event of a leader's replication stream: the
// dialer's hand-off opens it, a fence deposes the coordinator, and
// anything else — the stream's loss, or a frame the standby should never
// send — drops it. Events of a stream already dropped, or of the
// follower's stream after a takeover, are ignored.
func (co *coordinator[E]) stream(ev event[E]) error {
	putFrame(ev.frame)
	switch {
	case ev.kind == evStream:
		co.openStream(ev.sess)
	case ev.sess != co.repl:
	case ev.kind == evFenced:
		return &ErrEpochFenced{Epoch: co.epoch, Current: ev.hello.Epoch, Role: "coordinator"}
	case ev.kind == evDead:
		co.declareDead(ev.sess, ev.err)
	default:
		co.declareDead(ev.sess, errors.New("the standby sent a frame it never sends"))
	}
	return nil
}

// StandbyOptions configures RunStandby.
type StandbyOptions struct {
	// Options configures the coordinator the standby is. While it
	// follows, it reads only Logf and DeadlineAfter (the default lease,
	// and the write deadline of its replies). At the takeover, the
	// adopted stream's welcome replaces SchedSide, Shards, HeartbeatEvery
	// and DeadlineAfter, so the resumed solve keeps the primary's schedule
	// and liveness timing, and the epoch becomes the highest seen + 1:
	// Epoch is never read. Stats receives the takeover's counters when
	// RunStandby returns, all zero if it never took over.
	Options
	// LeaseAfter is how long the standby tolerates silence (no records,
	// no pings) from the primary before assuming leadership; 0 means
	// twice the effective DeadlineAfter. It must exceed the primary's
	// heartbeat period by enough to absorb scheduling jitter, or the
	// standby will depose a healthy primary.
	LeaseAfter time.Duration
	// OnDelta, when non-nil, observes replication progress: it is
	// called after each applied record with the replicated-done task
	// count. Chaos schedules key coordinator kills on it.
	OnDelta func(done int)
	// OnTakeover, when non-nil, fires once when the lease expires,
	// before the first wave of the takeover, with the new epoch.
	OnTakeover func(epoch uint32)
	// StandbyStats, when non-nil, receives the follower-phase counters
	// (the takeover's counters go to Options.Stats as usual).
	StandbyStats *StandbyStats
}

// StandbyStats counts the follower phase of a standby's life.
type StandbyStats struct {
	// TookOver reports whether the lease expired and this standby
	// became the leader.
	TookOver bool
	// Epoch is the epoch the standby took over at (0 if it never did).
	Epoch uint32
	// Records / Resyncs count applied replication records and
	// full-state resyncs (every stream (re)connect starts one).
	Records int
	Resyncs int
	// FencedWrites counts replication frames rejected for a stale
	// epoch while standing by.
	FencedWrites int
	// ReplicatedTasks is the completed-task count in the replica when
	// the follower phase ended.
	ReplicatedTasks int
}

// RunStandby runs a warm-standby coordinator on ln, starting in its
// follower phase: it adopts the primary's replication stream, writes the
// completed tasks' blocks into a replica over t, and answers worker
// hellos with a retryable "standby" frame so their reconnect rotation
// keeps probing. If the adopted stream goes silent past the lease, the
// same coordinator — listener, accept loop and event loop — leads the
// solve at the highest epoch seen + 1 on the in-memory replica, so
// MemoryBudget and CheckpointPath are rejected. OnDelta and OnTakeover
// run on the calling goroutine.
//
// Returns nil without taking over when the primary reports the solve
// complete (the replicated result is already in t), the primary's
// error when it reports failure, or the takeover's result after a
// failover. The lease clock only starts at first contact from a
// primary; cancel ctx to abandon a standby that never hears one.
func RunStandby[E semiring.Elem](ctx context.Context, ln net.Listener, t *tri.Tiled[E], opts StandbyOptions) error {
	defer ln.Close()
	if opts.MemoryBudget != 0 || opts.CheckpointPath != "" {
		return errors.New("cluster: a standby takes over on its in-memory replica; MemoryBudget and CheckpointPath are not supported")
	}
	co := newCoordinator(t, withDefaults(opts.Options))
	co.epoch = 1 // the highest epoch seen
	// The replica keeps a pristine copy of the input, taken here while t
	// still holds it: a reset must restore input bytes, because a healed
	// task may have been computed from a corrupt operand, and recomputing
	// never raises a min-plus value that is already too low.
	f := &follower[E]{opts: opts, lease: opts.LeaseAfter, replica: npdp.NewMemStore(t, true)}
	if f.lease <= 0 {
		f.lease = 2 * co.opts.DeadlineAfter
	}
	co.follower = f
	err := co.serve(ctx, ln)
	if opts.StandbyStats != nil {
		*opts.StandbyStats = f.stats
	}
	if errors.Is(err, errReleased) {
		return nil
	}
	return err
}

// follower is the state of a coordinator's follower phase.
type follower[E semiring.Elem] struct {
	opts    StandbyOptions
	lease   time.Duration
	replica *npdp.MemStore[E]
	// stream is the adopted stream: a session with no writer and no
	// shard, whose lastSeen is the lease clock. It stays after the
	// stream ends, so the lease runs on from its last frame.
	stream *session[E]
	job    welcomeMsg   // the adopted stream's welcome
	g      *sched.Graph // job's task graph
	// stats.ReplicatedTasks counts the replica's completed tasks.
	stats StandbyStats
}

// errReleased ends a follower whose primary finished the solve;
// RunStandby returns nil for it.
var errReleased = errors.New("cluster: primary finished")

// follow is the event loop's follower phase. It handles events — the
// accept path's hellos, the adopted stream's frames — until the primary
// finishes or fails, or until the adopted stream has been silent for the
// lease: then it takes over and returns nil, and the loop leads. The
// lease timer is re-armed only when it fires early, so a frame costs no
// more than its lastSeen.
func (co *coordinator[E]) follow(ctx context.Context) error {
	f := co.follower
	lease := time.NewTimer(f.lease)
	defer lease.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case now := <-lease.C:
			left := f.lease // before first contact the lease has not started
			if f.stream != nil {
				left = f.stream.lastSeen.Add(f.lease).Sub(now)
			}
			if left > 0 {
				lease.Reset(left)
				continue
			}
			return co.takeOver()
		case ev := <-co.events:
			if err := co.handle(ev); err != nil {
				return err
			}
		}
	}
}

// takeOver ends the follower phase: the primary is presumed dead, or
// unreachably partitioned, which the epoch fence makes equivalent. The
// coordinator leads at the highest epoch seen + 1, with the adopted
// welcome's schedule and liveness timing, on the replica, whose final
// tasks count as resumed.
func (co *coordinator[E]) takeOver() error {
	f := co.follower
	co.closeStream()
	co.follower = nil
	co.epoch++
	f.stats.TookOver, f.stats.Epoch = true, co.epoch
	co.opts.Logf("cluster: standby lease expired after %v; taking over at epoch %d with %d/%d tasks replicated",
		f.lease, co.epoch, f.stats.ReplicatedTasks, len(f.g.Tasks))
	co.opts.SchedSide, co.opts.Shards = f.job.SchedSide, f.job.Shards
	co.opts.HeartbeatEvery = time.Duration(f.job.HeartbeatMS) * time.Millisecond
	co.opts.DeadlineAfter = time.Duration(f.job.DeadlineMS) * time.Millisecond
	co.opts = withDefaults(co.opts)
	co.store = f.replica
	if err := co.lead(f.g, true); err != nil {
		return err
	}
	co.stats.Failovers = 1
	if f.opts.OnTakeover != nil {
		f.opts.OnTakeover(co.epoch)
	}
	return nil
}

// tail handles an event of the adopted stream in the follower phase.
// Pings and records renew the lease; a record sealed at another epoch
// than its stream's is fenced, and one that fails applyRecord closes the
// stream. The stream's end is a loss, which the lease outlives, or the
// primary's done or failure, which ends the standby. Events of a closed
// stream are dropped.
func (co *coordinator[E]) tail(ev event[E]) error {
	defer putFrame(ev.frame)
	f, s := co.follower, ev.sess
	switch {
	case s.dead:
	case ev.kind == evPing:
		s.lastSeen = time.Now()
	case ev.kind == evRecord && ev.msg.Epoch != co.epoch:
		// Adopting the stream raised our epoch to its hello's.
		s.dead = true
		co.fence(s.conn, s.name, ev.msg.Epoch)
	case ev.kind == evRecord:
		s.lastSeen = time.Now()
		typ := ev.frame.b[0]
		if err := applyRecord(f.replica, f.g, typ, ev.msg, &f.stats.ReplicatedTasks); err != nil {
			co.opts.Logf("cluster: standby rejecting record: %v", err)
			co.closeStream()
			return nil
		}
		f.stats.Records++
		if typ == frameReplSync {
			f.stats.Resyncs++
		}
		if f.opts.OnDelta != nil {
			f.opts.OnDelta(f.stats.ReplicatedTasks)
		}
	case ev.kind == evDone:
		co.opts.Logf("cluster: primary finished; standby releasing (%d tasks replicated)", f.stats.ReplicatedTasks)
		return errReleased
	case ev.kind == evFail:
		return fmt.Errorf("cluster: primary failed: %s", ev.text)
	default:
		// A broken stream, or a frame no stream carries. Closing the conn
		// is what tells a live primary the stream is gone, even when only
		// this side's read deadline ended it: a live primary redials, and
		// a dead one runs the lease out.
		co.opts.Logf("cluster: standby lost replication stream: %v", ev.err)
		co.closeStream()
	}
	return nil
}

// closeStream closes a follower's adopted stream if it is open. Its
// events are dropped from then on; the lease runs on from its last frame.
func (co *coordinator[E]) closeStream() {
	if f := co.follower; f != nil && f.stream != nil && !f.stream.dead {
		f.stream.dead = true
		f.stream.conn.Close()
	}
}

// applyRecord folds one fenced replication record into the replica over
// graph g, keeping doneN the count of its completed tasks. A task's
// blocks are installed and demoted together: rdone installs them final,
// rreset demotes them to their input bytes, rsync demotes every block.
// An rdone is checked the way install checks a worker's result — task in
// range, exactly the task's blocks in order, each a whole block whose
// bytes match its seal — before anything is written, so a record that
// fails leaves the replica unchanged.
func applyRecord[E semiring.Elem](s *npdp.MemStore[E], g *sched.Graph, typ byte, msg taskMsg, doneN *int) error {
	if typ != frameReplDone && len(msg.Blocks) != 0 {
		return fmt.Errorf("cluster: replication record of kind %d carries %d blocks, want none", typ, len(msg.Blocks))
	}
	if typ == frameReplSync {
		clearReplica(s)
		*doneN = 0
		return nil
	}
	if msg.TaskID < 0 || msg.TaskID >= len(g.Tasks) {
		return fmt.Errorf("cluster: replication record for unknown task %d", msg.TaskID)
	}
	task := g.Tasks[msg.TaskID]
	own := task.MemoryBlockOrder()
	final := s.IsFinal(own[0][0], own[0][1])
	if typ == frameReplReset {
		for _, mb := range own {
			s.Demote(mb[0], mb[1])
		}
		if final {
			*doneN--
		}
		return nil
	}
	if err := ownBlocks(s.Tiled, task, msg.Blocks); err != nil {
		return fmt.Errorf("cluster: record for task %d %v", msg.TaskID, err)
	}
	for _, wb := range msg.Blocks {
		if got := resilience.RawCRC(wb.Raw); got != wb.CRC {
			return fmt.Errorf("cluster: record for task %d block (%d,%d) seal mismatch: got %08x, want %08x",
				msg.TaskID, wb.Bi, wb.Bj, got, wb.CRC)
		}
	}
	for _, wb := range msg.Blocks {
		// A MemStore's Acquire and Complete never fail.
		cells, _ := s.Acquire(wb.Bi, wb.Bj)
		tableio.DecodeCells(cells, wb.Raw)
		s.Complete(wb.Bi, wb.Bj)
		s.Release(wb.Bi, wb.Bj)
	}
	if !final {
		*doneN++
	}
	return nil
}

// clearReplica demotes every final block of the replica to its input
// bytes.
func clearReplica[E semiring.Elem](s *npdp.MemStore[E]) {
	for bi := 0; bi < s.Blocks(); bi++ {
		for bj := bi; bj < s.Blocks(); bj++ {
			if s.IsFinal(bi, bj) {
				s.Demote(bi, bj)
			}
		}
	}
}
