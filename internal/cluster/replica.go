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
// silent. The direction of replication is primary-dials-standby — the
// primary is the only side that knows a solve exists — and the stream
// speaks the task protocol: a replication hello (a hello, then the
// welcome a worker would get), then one task message per completion-log
// record, with pings renewing the standby's lease while the wavefront is
// quiet. An rdone record is a result frame under its own kind; rreset
// and rsync carry no blocks. The standby checks each rdone the way
// install checks a worker's result and writes its blocks into a block
// store over its own table, which a takeover coordinator then runs on.
//
// The failover ladder (DESIGN.md §10):
//
//	lease expiry   → the standby heard nothing (frames or pings) for
//	                 LeaseAfter; the primary is presumed dead
//	epoch bump     → the standby becomes leader at old-epoch+1; every
//	                 frame it emits carries the new epoch
//	worker re-home → workers' reconnect rotation reaches the standby's
//	                 address; their hellos carry the highest epoch seen,
//	                 so a zombie primary that answers first deposes
//	                 itself instead of splitting the brain
//	resume         → the replica's final blocks pre-complete every
//	                 fully-replicated task; the remaining wavefront
//	                 re-dispatches from pristine bytes and the solve
//	                 finishes bit-identical (a task's blocks are
//	                 installed and demoted together, never in part)

// runReplicator is the primary-side push goroutine: it maintains one
// connection to the standby, opens every (re)connect with a full-state
// resync, then streams incremental completion-log records pulled from
// the event loop. Replication is best-effort — a dead standby costs the
// solve nothing but log lines.
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
		if co.stopped() {
			return // never connected at shutdown: the standby's lease decides
		}
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
		fenced, err := co.replSession(conn)
		conn.Close()
		if fenced {
			// evFenced is on its way to the event loop; the run is about
			// to abort. Pushing anywhere else would be a fenced write.
			<-co.stop
			return
		}
		if co.stopped() {
			return
		}
		co.opts.Logf("cluster: replica stream lost: %v", err)
		if !sleepCtx(rctx, backoff.Backoff(1)) {
			return
		}
	}
}

// replSession runs one replication connection: handshake, full resync,
// then incremental pulls until the stream breaks, the standby fences
// us, or the run ends (which delivers the final disposition in-band).
func (co *coordinator[E]) replSession(conn net.Conn) (fenced bool, err error) {
	hello := append(helloMsg{Epoch: co.epoch, Name: "primary"}.encode(), co.welcome(0).encode()...)
	conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	if err := writeFrame(conn, frameReplHello, hello); err != nil {
		return false, err
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, payload, err := readFrame(conn)
	if err != nil {
		return false, err
	}
	switch typ {
	case frameReplWelcome:
	case frameFenced:
		cur, _ := decodeEpoch(payload)
		co.post(event[E]{kind: evFenced, hello: helloMsg{Epoch: cur}})
		return true, &ErrEpochFenced{Epoch: co.epoch, Current: cur, Role: "coordinator"}
	case frameFail:
		f, _ := decodeFail(payload)
		return false, fmt.Errorf("cluster: standby rejected replication: %s", f.Reason)
	default:
		return false, fmt.Errorf("cluster: expected replication welcome, got frame type %d", typ)
	}

	// The reader half watches for a post-handshake fence — the standby
	// took over while we were partitioned, then our stream reconnected
	// into the new leader. Any other inbound traffic or a read error
	// ends the session.
	readerFenced := make(chan uint32, 1)
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		conn.SetReadDeadline(time.Time{})
		for {
			typ, payload, err := readFrame(conn)
			if err != nil {
				return
			}
			if typ == frameFenced {
				if cur, derr := decodeEpoch(payload); derr == nil {
					readerFenced <- cur
					co.post(event[E]{kind: evFenced, hello: helloMsg{Epoch: cur}})
				}
				return
			}
		}
	}()

	full := true
	for {
		select {
		case <-co.stop:
			co.sendReplFinal(conn, full)
			return false, nil
		case <-readerDone:
			select {
			case cur := <-readerFenced:
				return true, &ErrEpochFenced{Epoch: co.epoch, Current: cur, Role: "coordinator"}
			default:
				return false, errors.New("cluster: replica closed the stream")
			}
		default:
		}
		pull := replPull{full: full, reply: make(chan []*frameBuf, 1)}
		select {
		case co.replPullC <- pull:
		case <-co.stop:
			co.sendReplFinal(conn, full)
			return false, nil
		case <-readerDone:
			select {
			case cur := <-readerFenced:
				return true, &ErrEpochFenced{Epoch: co.epoch, Current: cur, Role: "coordinator"}
			default:
				return false, errors.New("cluster: replica closed the stream")
			}
		}
		// Once the event loop accepted the pull it replies synchronously
		// within the same select case, so this receive cannot hang.
		batch := <-pull.reply
		full = false
		if err := co.writeRecords(conn, batch); err != nil {
			return false, err
		}
		if len(batch) == 0 {
			// Nothing to push: renew the standby's lease and idle one
			// heartbeat.
			conn.SetWriteDeadline(time.Now().Add(co.opts.DeadlineAfter))
			if err := writeFrame(conn, framePing, nil); err != nil {
				return false, err
			}
			t := time.NewTimer(co.opts.HeartbeatEvery)
			select {
			case <-co.stop:
			case <-readerDone:
			case <-t.C:
			}
			t.Stop()
		}
	}
}

// sendReplFinal delivers the run's disposition to the standby: done
// (the standby applies its checkpoint and returns without taking over),
// fail (the standby surfaces the error), or nothing for a silent death.
// needFull means this session never flushed its opening resync, so the
// tail below must be a whole snapshot rather than incremental records.
func (co *coordinator[E]) sendReplFinal(conn net.Conn, needFull bool) {
	// The event loop has exited — close(co.stop) is the release barrier —
	// so the un-pulled tail of the completion log now belongs to this
	// goroutine. Flushing it before the done frame means the standby's
	// clean-finish return holds the complete solved table, not the table
	// minus the last batch.
	f, tail := co.replFinal, co.replPending
	co.replPending = nil
	if f.typ != frameDone {
		putFrames(tail)
		tail = nil
	} else if needFull || co.replFullSync {
		putFrames(tail)
		tail = co.snapshotRecords()
	}
	if f.typ == 0 || co.writeRecords(conn, tail) != nil {
		return
	}
	var payload []byte
	if f.typ == frameFail {
		payload = failMsg{Reason: f.reason}.encode()
	}
	conn.SetWriteDeadline(time.Now().Add(co.opts.DeadlineAfter))
	writeFrame(conn, f.typ, payload)
}

// writeRecords writes each record frame in one Write and returns it to
// the pool; after a failed Write the rest go back unwritten.
func (co *coordinator[E]) writeRecords(conn net.Conn, records []*frameBuf) error {
	var err error
	for _, fb := range records {
		if err == nil {
			conn.SetWriteDeadline(time.Now().Add(co.opts.DeadlineAfter))
			_, err = conn.Write(fb.b)
		}
		putFrame(fb)
	}
	if err != nil {
		return fmt.Errorf("cluster: writing replication record: %w", err)
	}
	return nil
}

// stopped reports whether the run has ended.
func (co *coordinator[E]) stopped() bool {
	select {
	case <-co.stop:
		return true
	default:
		return false
	}
}

// StandbyOptions configures RunStandby.
type StandbyOptions struct {
	// Options configures the coordinator the standby becomes on
	// takeover. Geometry-and-schedule fields (SchedSide, Shards,
	// HeartbeatEvery, DeadlineAfter) are overridden by the primary's
	// replication hello, so the resumed solve keeps the primary's
	// schedule and liveness timing.
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
	// before the takeover coordinator starts, with the new epoch.
	OnTakeover func(epoch uint32)
	// StandbyStats, when non-nil, receives the standby-phase counters
	// (takeover coordinator counters go to Options.Stats as usual).
	StandbyStats *StandbyStats
}

// StandbyStats counts the replication phase of a standby's life.
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
	// the standby phase ended.
	ReplicatedTasks int
}

// standby event kinds (standbyEv.kind).
const (
	sbReplConn = iota
	sbPing
	sbRecord
	sbDone
	sbFail
	sbLost
)

type standbyEv struct {
	kind    int
	conn    net.Conn
	hello   helloMsg
	welcome welcomeMsg
	typ     byte    // an sbRecord's frame kind
	msg     taskMsg // an sbRecord's record
	reason  string
	err     error
}

// RunStandby runs a warm-standby coordinator: it accepts the primary's
// replication stream on ln, writes the completed tasks' blocks into a
// block store over t, and — if the primary goes silent past the lease —
// takes over the solve on the same listener at epoch+1, resuming from
// the replicated state. Worker connections arriving before takeover are
// answered with a retryable "standby" frame so their reconnect rotation
// keeps probing. The takeover runs on the in-memory replica, so
// MemoryBudget and CheckpointPath are rejected.
//
// Returns nil without taking over when the primary reports the solve
// complete (the replicated result is already in t), the primary's
// error when it reports failure, or the takeover coordinator's result
// after a failover. The lease clock only starts at first contact from
// a primary; cancel ctx to abandon a standby that never hears one.
func RunStandby[E semiring.Elem](ctx context.Context, ln net.Listener, t *tri.Tiled[E], opts StandbyOptions) error {
	defer ln.Close()
	if opts.MemoryBudget != 0 || opts.CheckpointPath != "" {
		return errors.New("cluster: a standby takes over on its in-memory replica; MemoryBudget and CheckpointPath are not supported")
	}
	// The replica keeps a pristine copy of the input, taken here while t
	// still holds it: a reset must restore input bytes, because a healed
	// task may have been computed from a corrupt operand, and recomputing
	// never raises a min-plus value that is already too low.
	replica := npdp.NewMemStore(t, true)
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	lease := opts.LeaseAfter
	if lease <= 0 {
		d := opts.DeadlineAfter
		if d <= 0 {
			d = DefaultDeadlineAfter
		}
		lease = 2 * d
	}

	conns := make(chan net.Conn, 16)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				close(conns)
				return
			}
			conns <- c
		}
	}()

	events := make(chan standbyEv, 64)
	stopped := make(chan struct{})
	defer close(stopped)
	post := func(ev standbyEv) bool {
		select {
		case events <- ev:
			return true
		case <-stopped:
			if ev.conn != nil && ev.kind == sbReplConn {
				ev.conn.Close()
			}
			return false
		}
	}

	handshake := func(c net.Conn) {
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		typ, payload, err := readFrame(c)
		if err != nil {
			c.Close()
			return
		}
		switch typ {
		case frameHello:
			// A worker probing for a leader. Standby is retryable — the
			// worker's rotation keeps both addresses warm.
			c.SetWriteDeadline(time.Now().Add(10 * time.Second))
			if _, derr := decodeHello(payload); derr != nil {
				var vErr *ErrProtocolVersion
				if errors.As(derr, &vErr) {
					writeFrame(c, frameFail, failMsg{Reason: derr.Error()}.encode())
				}
			} else {
				writeFrame(c, frameStandby, nil)
			}
			c.Close()
		case frameReplHello:
			h, w, derr := decodeReplHello(payload)
			if derr != nil {
				var vErr *ErrProtocolVersion
				if errors.As(derr, &vErr) {
					c.SetWriteDeadline(time.Now().Add(10 * time.Second))
					writeFrame(c, frameFail, failMsg{Reason: derr.Error()}.encode())
				}
				c.Close()
				return
			}
			c.SetReadDeadline(time.Time{})
			post(standbyEv{kind: sbReplConn, conn: c, hello: h, welcome: w})
		default:
			c.Close()
		}
	}

	// readStream posts a replication stream's pings and records to the
	// event loop and returns the event that ends the stream.
	readStream := func(c net.Conn) standbyEv {
		// Rolling-progress deadline, window = the lease: a stream making
		// progress never times out, and a read parked past the lease is a
		// dead primary by this protocol's own definition — the event loop
		// will have taken over, so unpark and report the loss.
		sr := &sessionReader{conn: c, window: lease}
		for {
			typ, payload, err := readFrame(sr)
			if err != nil {
				return standbyEv{kind: sbLost, conn: c, err: err}
			}
			switch typ {
			case framePing:
				post(standbyEv{kind: sbPing, conn: c})
			case frameReplDone, frameReplReset, frameReplSync:
				msg, derr := decodeTaskMsg(payload)
				if derr != nil {
					return standbyEv{kind: sbLost, conn: c, err: derr}
				}
				if !post(standbyEv{kind: sbRecord, conn: c, typ: typ, msg: msg}) {
					return standbyEv{kind: sbLost, conn: c} // the standby has stopped
				}
			case frameDone:
				return standbyEv{kind: sbDone, conn: c}
			case frameFail:
				f, _ := decodeFail(payload)
				return standbyEv{kind: sbFail, conn: c, reason: f.Reason}
			default:
				return standbyEv{kind: sbLost, conn: c, err: fmt.Errorf("cluster: unexpected frame type %d on replication stream", typ)}
			}
		}
	}
	tail := func(c net.Conn) { post(readStream(c)) }

	var (
		sstats   StandbyStats
		g        *sched.Graph // the adopted stream's task graph
		cur      net.Conn
		curHello helloMsg
		curJob   welcomeMsg
		maxSeen  uint32 = 1
		doneN    int
		leaseT   *time.Timer
		leaseC   <-chan time.Time
	)
	flushStats := func() {
		sstats.ReplicatedTasks = doneN
		if opts.StandbyStats != nil {
			*opts.StandbyStats = sstats
		}
	}
	defer flushStats()
	var e E
	width := tableio.ElemWidth(e)

	fence := func(c net.Conn, epoch uint32) {
		sstats.FencedWrites++
		c.SetWriteDeadline(time.Now().Add(10 * time.Second))
		writeFrame(c, frameFenced, encodeEpoch(maxSeen))
		c.Close()
		opts.Logf("cluster: standby fenced replication at stale epoch %d (highest seen %d)", epoch, maxSeen)
	}

	for {
		select {
		case <-ctx.Done():
			if cur != nil {
				cur.Close()
			}
			return ctx.Err()

		case c, ok := <-conns:
			if !ok {
				if cur != nil {
					cur.Close()
				}
				return errors.New("cluster: standby listener closed")
			}
			go handshake(c)

		case <-leaseC:
			// Lease expired: the primary is dead (or unreachably
			// partitioned, which the epoch fence makes equivalent).
			if cur != nil {
				cur.Close()
			}
			epoch := maxSeen + 1
			sstats.TookOver = true
			sstats.Epoch = epoch
			flushStats()
			opts.Logf("cluster: standby lease expired after %v; taking over at epoch %d with %d/%d tasks replicated",
				lease, epoch, doneN, len(g.Tasks))
			copts := opts.Options
			copts.Epoch = epoch
			copts.SchedSide = curJob.SchedSide
			copts.Shards = curJob.Shards
			copts.HeartbeatEvery = time.Duration(curJob.HeartbeatMS) * time.Millisecond
			copts.DeadlineAfter = time.Duration(curJob.DeadlineMS) * time.Millisecond
			if opts.OnTakeover != nil {
				opts.OnTakeover(epoch)
			}
			return coordinate(ctx, &gateListener{ch: conns, real: ln}, t, copts, replica)

		case ev := <-events:
			if ev.kind == sbReplConn {
				h, w := ev.hello, ev.welcome
				if w.N != t.Len() || w.Tile != t.Tile() || w.ElemBytes != width {
					ev.conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
					writeFrame(ev.conn, frameFail, failMsg{Reason: fmt.Sprintf(
						"standby geometry n=%d tile=%d elem=%d does not match stream n=%d tile=%d elem=%d",
						t.Len(), t.Tile(), width, w.N, w.Tile, w.ElemBytes)}.encode())
					ev.conn.Close()
					continue
				}
				if h.Epoch < maxSeen {
					fence(ev.conn, h.Epoch)
					continue
				}
				ng, err := sched.NewGraph(t.Blocks(), w.SchedSide)
				if err != nil {
					ev.conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
					writeFrame(ev.conn, frameFail, failMsg{Reason: err.Error()}.encode())
					ev.conn.Close()
					continue
				}
				// Adopt the stream. Clearing the replica is safe: every
				// stream opens with a full resync, so no increment is ever
				// lost to the clear.
				if cur != nil {
					cur.Close()
				}
				clearReplica(replica)
				cur, curHello, curJob, g, doneN = ev.conn, h, w, ng, 0
				maxSeen = h.Epoch
				ev.conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
				if err := writeFrame(ev.conn, frameReplWelcome, encodeEpoch(h.Epoch)); err != nil {
					ev.conn.Close()
					cur = nil
					continue
				}
				if leaseT == nil {
					leaseT = time.NewTimer(lease)
					leaseC = leaseT.C
					defer leaseT.Stop()
				} else {
					resetLease(leaseT, leaseC, lease)
				}
				opts.Logf("cluster: standby tailing %s at epoch %d (n=%d tile=%d shards=%d)",
					h.Name, h.Epoch, w.N, w.Tile, w.Shards)
				go tail(ev.conn)
				continue
			}
			if ev.conn != cur {
				continue // a closed-over stream's last gasp
			}
			switch ev.kind {
			case sbPing:
				resetLease(leaseT, leaseC, lease)
			case sbRecord:
				if ev.msg.Epoch != curHello.Epoch {
					fence(cur, ev.msg.Epoch)
					cur = nil
					continue
				}
				resetLease(leaseT, leaseC, lease)
				if err := applyRecord(replica, g, ev.typ, ev.msg, &doneN); err != nil {
					opts.Logf("cluster: standby rejecting record: %v", err)
					cur.Close()
					cur = nil
					continue
				}
				sstats.Records++
				if ev.typ == frameReplSync {
					sstats.Resyncs++
				}
				if opts.OnDelta != nil {
					opts.OnDelta(doneN)
				}
			case sbLost:
				// The stream broke but the lease keeps ticking from the
				// last good frame: a primary that is alive will redial,
				// a dead one will run the lease out. Closing the conn is
				// what tells a live primary the stream is gone, even
				// when only this side's read deadline ended it.
				opts.Logf("cluster: standby lost replication stream: %v", ev.err)
				cur.Close()
				cur = nil
			case sbDone:
				flushStats()
				opts.Logf("cluster: primary finished; standby releasing (%d tasks replicated)", doneN)
				cur.Close()
				return nil
			case sbFail:
				cur.Close()
				return fmt.Errorf("cluster: primary failed: %s", ev.reason)
			}
		}
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

// resetLease re-arms the lease timer, draining a stale expiry so a
// frame that raced the timer does not leave a pending takeover signal.
func resetLease(t *time.Timer, c <-chan time.Time, d time.Duration) {
	if t == nil {
		return
	}
	if !t.Stop() {
		select {
		case <-c:
		default:
		}
	}
	t.Reset(d)
}

// gateListener hands the standby's accept stream to the takeover
// coordinator: the accept-pump goroutine keeps pushing raw connections
// into ch (including any buffered before the takeover), and the
// coordinator's acceptLoop pops them here exactly as if it owned the
// socket. Close closes the real listener, which ends the pump and then
// this listener.
type gateListener struct {
	ch   chan net.Conn
	real net.Listener
}

func (g *gateListener) Accept() (net.Conn, error) {
	c, ok := <-g.ch
	if !ok {
		return nil, net.ErrClosed
	}
	return c, nil
}

func (g *gateListener) Close() error   { return g.real.Close() }
func (g *gateListener) Addr() net.Addr { return g.real.Addr() }
