package harness

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"cellnpdp/internal/cluster"
	"cellnpdp/internal/npdp"
	"cellnpdp/internal/resilience"
	"cellnpdp/internal/sched"
	"cellnpdp/internal/stats"
	"cellnpdp/internal/tri"
)

// The failover experiment characterizes coordinator
// high availability (internal/cluster's warm standby): how much of the
// wavefront the replication stream had shipped when the primary was
// killed, how long the lease + takeover + resumed solve took from the
// kill to the final block, and that the epoch fence held (the result is
// verified bit-identical to SolveSerial in every run).

// failoverTile is deliberately smaller than the paper tile so the
// standard instance yields enough tasks for a kill keyed on replicated
// progress to land genuinely mid-wavefront.
const failoverTileSide = 24

// failoverRun is one measured primary-death takeover.
type failoverRun struct {
	secs      float64 // standby wall time: tailing + lease + takeover solve
	recovery  float64 // primary-kill-to-completion seconds
	killAfter int     // replicated-task threshold that triggered the kill
	stats     cluster.Stats
	sstats    cluster.StandbyStats
}

// failoverTasks is the g=1 task count of the failover instance at size n.
func failoverTasks(n int) int {
	m := (n + failoverTileSide - 1) / failoverTileSide
	return m * (m + 1) / 2
}

// runFailover solves the standard instance on an in-process loopback
// cluster with a warm standby, kills the primary (the Die seam, the
// in-process SIGKILL) once killAfter tasks have been REPLICATED, and
// measures the standby's recovery. The standby trails the primary, so
// once the primary has accepted killAfter tasks the workers' writes to
// it are held until the kill: the primary cannot finish first, and its
// event loop keeps replicating until the standby catches up. The
// takeover result is verified bit-identical to the serial reference
// before returning.
func runFailover(ctx context.Context, cfg Config, n, workers int, ref *tri.RowMajor[float32]) (failoverRun, error) {
	priTbl := tri.ToTiled(cfg.chainF32(n), failoverTileSide)
	sbTbl := tri.ToTiled(cfg.chainF32(n), failoverTileSide)

	priLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return failoverRun{}, err
	}
	sbLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		priLn.Close()
		return failoverRun{}, err
	}

	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	run := failoverRun{killAfter: maxInt(3, failoverTasks(n)/4)}
	die := make(chan struct{})
	var dieOnce sync.Once
	var killTime time.Time
	sbOpts := cluster.StandbyOptions{
		Options: cluster.Options{
			Stats: &run.stats,
		},
		LeaseAfter: 500 * time.Millisecond,
		OnDelta: func(done int) {
			// Keyed on REPLICATED progress, so the takeover provably
			// resumes from shipped state, never from zero.
			if done >= run.killAfter {
				dieOnce.Do(func() {
					killTime = time.Now()
					close(die)
				})
			}
		},
		StandbyStats: &run.sstats,
	}

	hold := make(chan struct{})
	var priStats cluster.Stats
	priOpts := cluster.Options{
		Shards: workers,
		// Records reach the standby as they are made; the ping period
		// only has to stay well inside the standby's 500 ms lease.
		HeartbeatEvery: 10 * time.Millisecond,
		ReplicaAddr:    sbLn.Addr().String(),
		Die:            die,
		Stats:          &priStats,
		OnTaskDone: func(completed int, _ sched.Task) {
			// completed counts up by one per call, so this closes once.
			if completed == run.killAfter {
				close(hold)
			}
		},
	}
	priAddr := priLn.Addr().String()
	dial := func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, "tcp", addr)
		if err != nil || addr != priAddr {
			return c, err
		}
		return &heldConn{Conn: c, hold: hold, release: die, done: runCtx.Done()}, nil
	}

	priErr := make(chan error, 1)
	go func() { priErr <- cluster.Coordinate(runCtx, priLn, priTbl, priOpts) }()

	addrs := priAddr + "," + sbLn.Addr().String()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			err := cluster.RunWorker(runCtx, addrs, cluster.WorkerOptions{
				Name:          fmt.Sprintf("w%d", w),
				MaxReconnects: 500,
				Reconnect: resilience.RetryPolicy{
					BaseDelay: 5 * time.Millisecond,
					MaxDelay:  50 * time.Millisecond,
					Jitter:    true,
				},
				Dial: dial,
			})
			if err != nil && !errors.Is(err, context.Canceled) {
				fmt.Fprintf(cfg.out(), "failover harness: worker w%d: %v\n", w, err)
			}
		}(w)
	}

	run.secs = timeIt(func() { err = cluster.RunStandby(runCtx, sbLn, sbTbl, sbOpts) })
	// OnDelta runs on the standby coordinator's event loop, which runs on
	// the goroutine that called RunStandby — this one — in both its
	// phases, so killTime is settled (and race-free) once RunStandby
	// returns.
	if !killTime.IsZero() {
		run.recovery = time.Since(killTime).Seconds()
	}
	cancelRun()
	wg.Wait()
	if err != nil {
		return failoverRun{}, err
	}
	if perr := <-priErr; !errors.Is(perr, cluster.ErrDied) {
		return failoverRun{}, fmt.Errorf("killed primary returned %v, want ErrDied", perr)
	}
	if !run.sstats.TookOver {
		return failoverRun{}, fmt.Errorf("primary finished before the kill fired (replicated=%d of %d); nothing was measured",
			run.sstats.ReplicatedTasks, failoverTasks(n))
	}
	if i, j, a, b, diff := tri.FirstDiff[float32](ref, sbTbl); diff {
		return failoverRun{}, fmt.Errorf("takeover solve diverged at (%d,%d): %v vs %v", i, j, a, b)
	}
	return run, nil
}

// heldConn is a worker's connection to the primary. Once hold closes,
// each Write waits until release closes or the run ends.
type heldConn struct {
	net.Conn
	hold, release, done <-chan struct{}
}

func (c *heldConn) Write(p []byte) (int, error) {
	select {
	case <-c.hold:
		select {
		case <-c.release:
		case <-c.done:
		}
	default:
	}
	//nolint:npdplint(netdeadline) the worker arms the write deadline before every Write
	return c.Conn.Write(p)
}

// Failover is the experiment entry point (see FailoverCtx).
func Failover(cfg Config) (*stats.Table, error) {
	return FailoverCtx(context.Background(), cfg)
}

// FailoverCtx renders the coordinator-HA characterization table: the
// primary killed mid-wavefront at two replication depths, the standby's
// takeover epoch, how much state it resumed from, and the kill-to-done
// recovery time — each run verified bit-identical to the serial engine.
func FailoverCtx(ctx context.Context, cfg Config) (*stats.Table, error) {
	// The kill is keyed on replicated progress, so the instance needs
	// enough wavefront runway that the primary cannot finish before the
	// replication stream ships killAfter tasks — smoke configs with tiny
	// Sizes must not shrink it, so n is the experiment's own floor.
	n := 600
	ref := cfg.chainF32(n)
	npdp.SolveSerial(ref)

	t := stats.NewTable(
		fmt.Sprintf("Coordinator failover — warm standby resumes a killed primary (n=%d, tile=%d, %d tasks)",
			n, failoverTileSide, failoverTasks(n)),
		"configuration", "workers", "replicated", "resumed", "epoch", "fenced", "recovery ms", "wall ms", "verified")

	for _, workers := range []int{2, 3} {
		run, err := runFailover(ctx, cfg, n, workers, ref)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("primary killed, %d workers", workers), fmt.Sprint(workers),
			fmt.Sprint(run.sstats.ReplicatedTasks), fmt.Sprint(run.stats.Resumed),
			fmt.Sprint(run.stats.Epoch), fmt.Sprint(run.stats.FencedWrites),
			fmt.Sprintf("%.2f", run.recovery*1e3), fmt.Sprintf("%.2f", run.secs*1e3), "yes")
	}
	return t, nil
}
