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

// The cluster experiment characterizes the sharded
// coordinator/worker solve (internal/cluster) against the single-process
// parallel engine: loopback-TCP overhead across worker counts, the DMA
// analogue traffic (boundary blocks streamed), and the recovery cost of
// a worker killed mid-wavefront. Every row's table is verified
// bit-identical to SolveSerial — distribution must never change a bit.

// clusterRun is one measured loopback cluster solve.
type clusterRun struct {
	secs     float64 // wall time of the whole solve
	recovery float64 // kill-to-completion seconds (0 when no kill)
	stats    cluster.Stats
}

// runLoopback solves the standard instance on an in-process loopback
// cluster: the coordinator in this goroutine, workers as goroutines on
// real TCP connections. killAfter > 0 hard-kills one worker (connection
// slammed shut, the SIGKILL analogue) once that many tasks completed.
// The result is verified bit-identical to the serial reference before
// returning.
func runLoopback(ctx context.Context, cfg Config, n, workers, killAfter int,
	inject *resilience.Injector, ref *tri.RowMajor[float32]) (clusterRun, error) {
	tile := paperTile(npdp.Single)
	tbl := tri.ToTiled(cfg.chainF32(n), tile)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return clusterRun{}, err
	}
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	var run clusterRun
	var killTime time.Time
	var killOnce sync.Once
	cancels := make([]context.CancelFunc, workers)
	opts := cluster.Options{
		Shards:         workers,
		Heal:           inject != nil,
		HeartbeatEvery: 50 * time.Millisecond,
		Stats:          &run.stats,
	}
	if killAfter > 0 {
		opts.OnTaskDone = func(completed int, _ sched.Task) {
			if completed >= killAfter {
				killOnce.Do(func() {
					killTime = time.Now()
					go cancels[0]()
				})
			}
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wctx, cancel := context.WithCancel(runCtx)
		cancels[w] = cancel
		defer cancel()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			err := cluster.RunWorker(wctx, ln.Addr().String(), cluster.WorkerOptions{
				Name: fmt.Sprintf("w%d", w), Inject: inject,
			})
			if err != nil && !errors.Is(err, context.Canceled) {
				fmt.Fprintf(cfg.out(), "cluster harness: worker w%d: %v\n", w, err)
			}
		}(w)
	}
	run.secs = timeIt(func() { err = cluster.Coordinate(runCtx, ln, tbl, opts) })
	// OnTaskDone runs on Coordinate's own event loop — this goroutine —
	// so killTime is settled (and race-free) once Coordinate returns.
	if !killTime.IsZero() {
		run.recovery = time.Since(killTime).Seconds()
	}
	cancelRun()
	wg.Wait()
	if err != nil {
		return clusterRun{}, err
	}
	if i, j, a, b, diff := tri.FirstDiff[float32](ref, tbl); diff {
		return clusterRun{}, fmt.Errorf("cluster solve diverged at (%d,%d): %v vs %v", i, j, a, b)
	}
	return run, nil
}

// Cluster is the experiment entry point (see ClusterCtx).
func Cluster(cfg Config) (*stats.Table, error) {
	return ClusterCtx(context.Background(), cfg)
}

// ClusterCtx renders the distributed-solve characterization table:
// single-process baseline, loopback worker sweep, a worker kill
// mid-wavefront, and seeded silent corruption healed by the poisoned
// cone — each verified bit-identical to the serial engine.
func ClusterCtx(ctx context.Context, cfg Config) (*stats.Table, error) {
	n := 600
	if sizes := cfg.measuredSizes(); sizes[len(sizes)-1] < n {
		n = sizes[len(sizes)-1]
	}
	ref := cfg.chainF32(n)
	npdp.SolveSerial(ref)

	t := stats.NewTable(
		fmt.Sprintf("Distributed cluster — sharded coordinator/worker solve over loopback TCP (n=%d)", n),
		"configuration", "workers", "wall ms", "deaths", "redisp", "mismatch", "heal", "blocks", "verified")

	// Single-process baseline: the parallel engine the cluster competes
	// against when the network is free.
	base := cfg.chainF32(n)
	tb := tri.ToTiled(base, paperTile(npdp.Single))
	var baseErr error
	baseSecs := timeIt(func() {
		_, baseErr = npdp.SolveParallel(tb, npdp.ParallelOptions{Workers: cfg.workers()})
	})
	if baseErr != nil {
		return nil, baseErr
	}
	if i, j, a, b, diff := tri.FirstDiff[float32](ref, tb); diff {
		return nil, fmt.Errorf("baseline diverged at (%d,%d): %v vs %v", i, j, a, b)
	}
	t.AddRow("single process", fmt.Sprint(cfg.workers()), fmt.Sprintf("%.2f", baseSecs*1e3),
		"-", "-", "-", "-", "0", "yes")

	for _, w := range []int{1, 2, 4} {
		run, err := runLoopback(ctx, cfg, n, w, 0, nil, ref)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("cluster, %d worker(s)", w), fmt.Sprint(w),
			fmt.Sprintf("%.2f", run.secs*1e3), "0", "0", "0", "0",
			fmt.Sprint(run.stats.BlocksStreamed), "yes")
	}

	// One worker of three hard-killed a third of the way in.
	kill, err := runLoopback(ctx, cfg, n, 3, maxInt(2, clusterTasks(n)/3), nil, ref)
	if err != nil {
		return nil, err
	}
	t.AddRow("cluster, 1 of 3 killed", "3",
		fmt.Sprintf("%.2f", kill.secs*1e3),
		fmt.Sprint(kill.stats.WorkerDeaths), fmt.Sprint(kill.stats.Redispatched),
		"0", "0", fmt.Sprint(kill.stats.BlocksStreamed), "yes")

	// Seeded silent corruption on every worker, healed by cone recompute.
	inject := &resilience.Injector{Rate: 0.1, Seed: cfg.Seed + 7,
		Kinds: []resilience.FaultKind{resilience.FaultCorrupt}}
	healed, err := runLoopback(ctx, cfg, n, 2, 0, inject, ref)
	if err != nil {
		return nil, err
	}
	t.AddRow("cluster, 10% corruption healed", "2",
		fmt.Sprintf("%.2f", healed.secs*1e3), "0", "0",
		fmt.Sprint(healed.stats.SealMismatches), fmt.Sprint(healed.stats.HealRounds),
		fmt.Sprint(healed.stats.BlocksStreamed), "yes")
	return t, nil
}

// clusterTasks is the g=1 task count of the standard instance at size n.
func clusterTasks(n int) int {
	tile := paperTile(npdp.Single)
	m := (n + tile - 1) / tile
	return m * (m + 1) / 2
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
