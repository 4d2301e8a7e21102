package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"cellnpdp/internal/npdp"
	"cellnpdp/internal/resilience"
	"cellnpdp/internal/sched"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tri"
)

// A worker is an SPE of the distributed solve: it holds a local-store
// table, receives the operand blocks of each dispatched task (the DMA
// analogue), computes with the exact engine code path the
// single-process solvers use (npdp.ComputeTask over npdp.Stage1, the
// host's band kernels), seals its results with CRC32C, and streams
// them back. It is entirely stateless across connections: a reconnect
// starts a fresh session with an empty local table, and the
// coordinator re-streams whatever the worker lacks.

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// Name identifies the worker in coordinator logs.
	Name string
	// Inject, when non-nil, applies deterministic silent corruption to
	// result blocks after they are sealed — the chaos harness's
	// transport-corruption model. Only FaultCorrupt plans apply; the
	// attempt key is the dispatch generation, so a healed re-dispatch
	// re-rolls the draw exactly like the single-process heal loop.
	Inject *resilience.Injector
	// Reconnect is the backoff schedule between dial attempts after a
	// lost connection; the zero value gets BaseDelay 50ms, capped
	// full-jitter (resilience.DefaultMaxDelay ceiling). Its Rand and
	// Sleep seams make reconnect schedules deterministic in tests.
	Reconnect resilience.RetryPolicy
	// MaxReconnects bounds consecutive failed attempts per address
	// before giving up; 0 means 8. With multiple addresses the total
	// budget is MaxReconnects × len(addresses). Only a session that
	// made real progress (a dispatch executed, or a long-lived idle
	// connection) resets the count — merely reaching a different
	// address does NOT, so a flapping coordinator pair cannot hot-loop
	// the worker through an ever-restarting backoff.
	MaxReconnects int
	// HandshakeTimeout bounds the hello→welcome exchange per attempt;
	// 0 means 10s. Failover tests lower it so a blackholed address is
	// abandoned quickly and the rotation reaches the live leader.
	HandshakeTimeout time.Duration
	// Logf, when non-nil, receives connection lifecycle logging.
	Logf func(format string, args ...any)
	// Dial overrides the connection factory (tests inject proxies);
	// nil means a plain TCP dial of the given address.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
}

// sessOutcome classifies how a worker session ended.
type sessOutcome int

const (
	// sessLost: the connection or session broke; retry with backoff.
	sessLost sessOutcome = iota
	// sessWorked: the session made real progress before breaking;
	// the consecutive-failure count resets.
	sessWorked
	// sessRejected: the peer is not our leader (standby, fenced, or a
	// stale epoch); rotate to the next address, failure count carries.
	sessRejected
	// sessTerminal: the run is over for good (done, coordinator
	// failure, protocol version mismatch); do not reconnect.
	sessTerminal
)

// RunWorker connects to the coordinator at addr — a comma-separated
// list of candidate addresses when a warm standby exists — and executes
// dispatched tasks until a coordinator sends done (returns nil), the
// context is canceled, a coordinator reports terminal failure, or the
// reconnect budget is exhausted. Lost connections are re-dialed with
// capped full-jitter backoff, rotating through the candidate addresses;
// the worker remembers the highest epoch it has been welcomed at and
// refuses any leader older than that, which is the worker half of the
// failover fence.
func RunWorker(ctx context.Context, addr string, opts WorkerOptions) error {
	if opts.Name == "" {
		opts.Name = "worker"
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.Reconnect.BaseDelay <= 0 {
		opts.Reconnect.BaseDelay = 50 * time.Millisecond
		opts.Reconnect.Jitter = true
	}
	if opts.MaxReconnects <= 0 {
		opts.MaxReconnects = 8
	}
	if opts.HandshakeTimeout <= 0 {
		opts.HandshakeTimeout = 10 * time.Second
	}
	var addrs []string
	for _, a := range strings.Split(addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return fmt.Errorf("cluster: worker %s: no coordinator address", opts.Name)
	}
	dial := opts.Dial
	if dial == nil {
		dial = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	// One failure count across every address: the budget is per-target
	// (MaxReconnects × len(addrs) attempts total) but the count never
	// restarts just because the rotation reached a new address — the
	// pre-failover bug where each address got a fresh cap let a
	// flapping pair keep a worker hot-looping forever.
	budget := opts.MaxReconnects * len(addrs)
	failures := 0
	target := 0
	var highest uint32 // highest epoch ever welcomed at; never accept less
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		a := addrs[target%len(addrs)]
		conn, err := dial(ctx, a)
		if err == nil {
			var outcome sessOutcome
			outcome, err = runSession(ctx, conn, opts, &highest)
			if outcome == sessTerminal {
				return err // nil on coordinator done, terminal otherwise
			}
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			if outcome == sessWorked {
				failures = 0 // real progress; stay on this address
				opts.Logf("cluster: worker %s lost coordinator at %s: %v", opts.Name, a, err)
			} else {
				opts.Logf("cluster: worker %s leaving %s: %v", opts.Name, a, err)
				target++ // not (or no longer) a leader here; rotate
			}
		} else {
			target++
		}
		failures++
		if failures > budget {
			return fmt.Errorf("cluster: worker %s: reconnect budget (%d across %d addresses) exhausted: %w",
				opts.Name, budget, len(addrs), err)
		}
		d := opts.Reconnect.Backoff(failures)
		if opts.Reconnect.Sleep != nil {
			opts.Reconnect.Sleep(d) // injectable seam for deterministic tests
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
		} else if !sleepCtx(ctx, d) {
			return ctx.Err()
		}
	}
}

// sessionReader reads the connection under a rolling deadline: every
// Read pushes the read deadline window ahead, so a frame read only
// fails when the link makes no progress for a whole window. A multi-MB
// dispatch frame trickling in on a slow link never times out mid-frame
// — which matters, because abandoning a frame after io.ReadFull
// consumed part of it would leave the next read starting mid-stream, a
// permanent desync. A window of 0 clears the deadline instead: a
// standby's stream is silent until it ends.
type sessionReader struct {
	conn   net.Conn
	window time.Duration
}

func (r *sessionReader) Read(p []byte) (int, error) {
	var deadline time.Time
	if r.window > 0 {
		deadline = time.Now().Add(r.window)
	}
	r.conn.SetReadDeadline(deadline)
	return r.conn.Read(p)
}

// sleepCtx sleeps d unless ctx ends first; returns false on cancellation.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// runSession performs one handshake and runs the typed session for the
// element width the welcome announces. highest is the worker's epoch
// memory: the hello advertises it, a welcome below it is refused (the
// peer is a deposed leader), and a welcome at or above it raises it.
func runSession(ctx context.Context, conn net.Conn, opts WorkerOptions, highest *uint32) (sessOutcome, error) {
	defer conn.Close()
	// Unblock the session's reads if the context dies mid-solve; the
	// watcher is reclaimed at session end.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-watchDone:
		}
	}()

	sr := &sessionReader{conn: conn, window: opts.HandshakeTimeout}
	br := bufio.NewReader(sr)
	conn.SetWriteDeadline(time.Now().Add(opts.HandshakeTimeout))
	if err := writeFrame(conn, frameHello, helloMsg{Epoch: *highest, Name: opts.Name}.encode()); err != nil {
		return sessLost, err
	}
	typ, payload, err := readFrame(br)
	if err != nil {
		return sessLost, err
	}
	switch typ {
	case frameFail:
		f, _ := decodeFail(payload)
		return sessTerminal, fmt.Errorf("cluster: coordinator rejected %s: %s", opts.Name, f.Reason)
	case frameStandby:
		return sessRejected, fmt.Errorf("cluster: %s is a standby, not a leader yet", conn.RemoteAddr())
	case frameFenced:
		if ep, derr := decodeEpoch(payload); derr == nil && ep > *highest {
			*highest = ep
		}
		return sessRejected, fmt.Errorf("cluster: %s fenced our connection", conn.RemoteAddr())
	case frameWelcome:
	default:
		return sessLost, fmt.Errorf("cluster: expected welcome, got frame type %d", typ)
	}
	welcome, err := decodeWelcome(payload)
	if err != nil {
		var vErr *ErrProtocolVersion
		if errors.As(err, &vErr) {
			return sessTerminal, err // a build mismatch never heals by retrying
		}
		return sessLost, err
	}
	if welcome.Epoch < *highest {
		// A deposed leader still answering its door. Refusing it here is
		// the split-brain fence: nothing we computed for it could ever
		// install anywhere that matters, so don't compute at all.
		return sessRejected, &ErrEpochFenced{Epoch: welcome.Epoch, Current: *highest, Role: "coordinator"}
	}
	*highest = welcome.Epoch
	opts.Logf("cluster: worker %s joined shard %d/%d at epoch %d (n=%d tile=%d)",
		opts.Name, welcome.Slot, welcome.Shards, welcome.Epoch, welcome.N, welcome.Tile)
	switch welcome.ElemBytes {
	case 4:
		return workerSession[float32](ctx, conn, sr, br, welcome, opts, highest)
	case 8:
		return workerSession[float64](ctx, conn, sr, br, welcome, opts, highest)
	}
	return sessLost, fmt.Errorf("cluster: unsupported element width %d", welcome.ElemBytes)
}

// workerSession executes one connection's dispatch loop at a concrete
// element type. It reads every frame into one reused buffer and builds
// every result frame in another, which leaves in one Write.
func workerSession[E semiring.Elem](ctx context.Context, conn net.Conn, sr *sessionReader, br *bufio.Reader,
	welcome welcomeMsg, opts WorkerOptions, highest *uint32) (sessOutcome, error) {
	t := tri.NewTiled[E](welcome.N, welcome.Tile)
	g, err := sched.NewGraph(t.Blocks(), welcome.SchedSide)
	if err != nil {
		return sessLost, err
	}
	mul := npdp.Stage1[E]()
	heartbeat := time.Duration(welcome.HeartbeatMS) * time.Millisecond
	deadline := time.Duration(welcome.DeadlineMS) * time.Millisecond
	if heartbeat <= 0 {
		heartbeat = DefaultHeartbeatEvery
	}
	if deadline <= 0 {
		deadline = DefaultDeadlineAfter
	}
	// A session "worked" — resetting the shared reconnect-failure count
	// — once it executes a dispatch, or once it has simply stayed up
	// past the backoff ceiling (a healthy-but-idle connection is not a
	// failure). Anything less (a welcome, pings) can come from a
	// flapping coordinator faster than the backoff can contain it.
	started := time.Now()
	worked := func(base sessOutcome) sessOutcome {
		if base == sessLost && time.Since(started) >= resilience.DefaultMaxDelay {
			return sessWorked
		}
		return base
	}
	outcome := sessLost
	lastSeen := time.Now()
	var rbuf, result []byte
	for {
		if err := ctx.Err(); err != nil {
			return worked(outcome), err
		}
		// Wait for the next frame with the heartbeat period as the
		// slice, so pings flow even when no dispatch arrives and
		// coordinator silence past the deadline drops the connection
		// into the reconnect path. The one-byte peek makes a timeout
		// unambiguous: it only ever fires with zero bytes consumed
		// (anything already received sits in the bufio buffer), so idle
		// waiting can never abandon a partially-read frame. Once a
		// frame has begun, readFrame runs under the rolling deadline
		// window, which fails only on a genuinely stalled link.
		sr.window = heartbeat
		if _, err := br.Peek(1); err != nil {
			if netTimeout(err) {
				if time.Since(lastSeen) > deadline {
					return worked(outcome), fmt.Errorf("cluster: coordinator silent for %v", deadline)
				}
				conn.SetWriteDeadline(time.Now().Add(deadline))
				if err := writeFrame(conn, framePing, nil); err != nil {
					return worked(outcome), err
				}
				continue
			}
			return worked(outcome), err
		}
		sr.window = deadline
		typ, payload, frame, err := readFrameInto(br, rbuf)
		rbuf = frame
		if err != nil {
			return worked(outcome), err
		}
		lastSeen = time.Now()
		switch typ {
		case framePing:
			continue
		case frameDone:
			opts.Logf("cluster: worker %s released", opts.Name)
			return sessTerminal, nil
		case frameFail:
			f, _ := decodeFail(payload)
			return sessTerminal, fmt.Errorf("cluster: coordinator failed: %s", f.Reason)
		case frameStandby:
			// The leader demoted mid-session? Treat like a rejection and
			// rotate — somewhere a newer leader exists.
			return sessRejected, fmt.Errorf("cluster: %s declared itself a standby", conn.RemoteAddr())
		case frameFenced:
			// A failover happened: this session's leader is gone and a
			// newer epoch rules. Rotate and re-home.
			if ep, derr := decodeEpoch(payload); derr == nil && ep > *highest {
				*highest = ep
			}
			return sessRejected, fmt.Errorf("cluster: re-homed by epoch fence (session epoch %d)", welcome.Epoch)
		case frameDispatch:
			msg, err := decodeTaskMsg(payload)
			if err != nil {
				return worked(outcome), err
			}
			if msg.Epoch != welcome.Epoch {
				// A dispatch from outside this session's epoch can only
				// be a protocol violation or a replayed frame; computing
				// it would produce a result the fence must then catch.
				conn.SetWriteDeadline(time.Now().Add(deadline))
				ferr := &ErrEpochFenced{Epoch: msg.Epoch, Current: welcome.Epoch, Role: "worker"}
				writeFrame(conn, frameFail, failMsg{Reason: ferr.Error()}.encode())
				return worked(outcome), ferr
			}
			result, err = executeDispatch(t, g, mul, msg, opts.Inject, result)
			if err != nil {
				// A bad dispatch payload (CRC mismatch on an operand
				// block, unknown task) poisons this session's table;
				// report and reconnect fresh.
				conn.SetWriteDeadline(time.Now().Add(deadline))
				writeFrame(conn, frameFail, failMsg{Reason: err.Error()}.encode())
				return worked(outcome), err
			}
			outcome = sessWorked
			conn.SetWriteDeadline(time.Now().Add(deadline))
			if _, err := conn.Write(result); err != nil {
				return worked(outcome), fmt.Errorf("cluster: writing result: %w", err)
			}
		default:
			return worked(outcome), fmt.Errorf("cluster: unexpected frame type %d", typ)
		}
	}
}

// netTimeout reports whether err is a read-deadline expiry.
func netTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// executeDispatch installs a dispatch's blocks (seal-verified), computes
// the task, and builds the sealed result frame in buf's storage, which
// it returns. The seal of each produced block digests the computed bytes
// before the injector may flip a bit, so injected corruption is silent
// to the computation but visible to the coordinator's install audit —
// the same fault model as the single-process heal loop.
func executeDispatch[E semiring.Elem](t *tri.Tiled[E], g *sched.Graph, mul npdp.Stage1Func[E],
	msg taskMsg, inject *resilience.Injector, buf []byte) ([]byte, error) {
	if msg.TaskID < 0 || msg.TaskID >= len(g.Tasks) {
		return buf, fmt.Errorf("cluster: dispatch for unknown task %d", msg.TaskID)
	}
	task := g.Tasks[msg.TaskID]
	for _, wb := range msg.Blocks {
		if wb.Bi < 0 || wb.Bi > wb.Bj || wb.Bj >= t.Blocks() {
			return buf, fmt.Errorf("cluster: dispatch block (%d,%d) outside the block triangle", wb.Bi, wb.Bj)
		}
		if got := resilience.RawCRC(wb.Raw); got != wb.CRC {
			return buf, &resilience.ErrSealMismatch{
				Bi: wb.Bi, Bj: wb.Bj, BlockID: t.BlockID(wb.Bi, wb.Bj), TaskID: msg.TaskID,
				Want: wb.CRC, Got: got,
			}
		}
		if err := decodeCells(t.Block(wb.Bi, wb.Bj), wb.Raw); err != nil {
			return buf, err
		}
	}
	npdp.ComputeTask(t, task, mul)

	own := task.MemoryBlockOrder()
	cells := make([][]E, len(own))
	for i, mb := range own {
		cells[i] = t.Block(mb[0], mb[1])
	}
	crcs := resilience.DigestThenFlip(cells, inject, task.ID, int(msg.Gen))
	frame := beginTaskFrame(buf, frameResult, msg.Epoch, msg.Gen, msg.TaskID)
	for i, mb := range own {
		frame = appendBlock(frame, mb[0], mb[1], crcs[i], cells[i])
	}
	return endTaskFrame(frame, len(own)), nil
}
