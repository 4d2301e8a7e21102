package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cellnpdp/internal/cluster"
	"cellnpdp/internal/npdp"
	"cellnpdp/internal/resilience"
	"cellnpdp/internal/sched"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tri"
	"cellnpdp/internal/workload"
)

// runCluster is the `cellnpdp cluster` subcommand: the sharded
// coordinator/worker solve (see internal/cluster). Four modes:
//
//	loopback    (default) — coordinator plus -cluster-workers local
//	            worker processes on a loopback port; the one-command
//	            multi-process solve and the chaos harness's home
//	coordinator — coordinator only; workers join from elsewhere.
//	            -replica streams its completion log to a warm standby
//	worker      — one worker dialing -connect (a comma-separated
//	            rotation list: "primary,standby")
//	standby     — warm standby: tails a primary's replication stream
//	            and takes over the solve when the lease expires
//
// Loopback mode carries the deterministic chaos harness: -chaos-kills
// SIGKILLs workers mid-wavefront on a seeded completion schedule,
// -chaos-kill-coordinator runs the primary as a subprocess under an
// in-process warm standby and SIGKILLs it mid-wavefront, and
// -faultrate arms every worker's silent-corruption injector with a
// shared seed so the corrupted task set is schedule-independent.
func runCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	var (
		mode    = fs.String("mode", "loopback", "loopback, coordinator, worker or standby")
		addr    = fs.String("addr", "127.0.0.1:0", "coordinator/standby listen address")
		connect = fs.String("connect", "", "worker mode: coordinator address(es) to dial, comma-separated")
		name    = fs.String("name", "worker", "worker mode: name in coordinator logs")

		n         = fs.Int("n", 1024, "problem size (DP points)")
		seed      = fs.Int64("seed", 1, "workload seed")
		prec      = fs.String("prec", "single", "precision: single or double")
		block     = fs.Int("block", 32*1024, "memory-block budget in bytes (sets the tile)")
		schedSide = fs.Int("sched-side", 1, "scheduling-block side g in memory blocks")

		workers  = fs.Int("cluster-workers", 2, "loopback: worker processes to spawn")
		shards   = fs.Int("shards", 0, "column shards (0 = worker count)")
		hbEvery  = fs.Duration("heartbeat", 0, "heartbeat period (0 = default)")
		deadline = fs.Duration("deadline", 0, "silent-worker death deadline (0 = default)")
		orphanT  = fs.Duration("workerless", 0, "max wait with zero live workers (0 = default)")

		heal       = fs.Bool("heal", false, "recompute the poisoned cone when a boundary block fails its seal audit")
		healMax    = fs.Int("heal-attempts", 0, "max consecutive seal failures of one block before the pristine restart (0 = default)")
		checkpoint = fs.String("checkpoint", "", "coordinator/loopback: keep the authoritative table's checkpoint (a spill file) at this path")
		ckEvery    = fs.Int("checkpoint-every", 0, "checkpoint commit period in accepted tasks (0 = default 16)")
		resume     = fs.Bool("resume", false, "resume the solve from -checkpoint")

		faultRate = fs.Float64("faultrate", 0, "worker-side silent-corruption rate per (task, generation)")
		faultSeed = fs.Int64("faultseed", 1, "corruption-injection seed (loopback shares it across workers)")

		chaosKills = fs.Int("chaos-kills", 0, "loopback: SIGKILL this many workers mid-wavefront")
		chaosSeed  = fs.Int64("chaos-seed", 1, "seed of the kill schedule (completion counts and victims)")
		restart    = fs.Bool("restart", true, "loopback: respawn each killed worker after a short delay")

		replica    = fs.String("replica", "", "coordinator/loopback: stream the completion log to this warm-standby address")
		lease      = fs.Duration("lease", 0, "standby: silence tolerated before takeover (0 = 2x deadline)")
		maxReconn  = fs.Int("max-reconnects", 0, "worker: failed attempts tolerated per coordinator address (0 = default)")
		chaosCoord = fs.Bool("chaos-kill-coordinator", false,
			"loopback: run the coordinator as a subprocess replicating to an in-process standby, SIGKILL it mid-wavefront")

		memBudget = fs.Int64("memory-budget", 0, "coordinator/loopback: page the authoritative table through a spill file with this resident-set budget in bytes")

		verify  = fs.Bool("verify", false, "re-solve with the serial engine and require bit-identity")
		timeout = fs.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *faultRate < 0 || *faultRate > 1 {
		return fmt.Errorf("-faultrate must be in [0, 1], got %g", *faultRate)
	}
	if *memBudget < 0 {
		return fmt.Errorf("-memory-budget must be non-negative, got %d", *memBudget)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *mode == "worker" {
		if *connect == "" {
			return fmt.Errorf("worker mode needs -connect")
		}
		var inject *resilience.Injector
		if *faultRate > 0 {
			inject = &resilience.Injector{
				Rate: *faultRate, Seed: *faultSeed,
				Kinds: []resilience.FaultKind{resilience.FaultCorrupt},
			}
		}
		return cluster.RunWorker(ctx, *connect, cluster.WorkerOptions{
			Name: *name, Inject: inject, MaxReconnects: *maxReconn, Logf: log.Printf,
		})
	}

	cfg := clusterConfig{
		mode: *mode, addr: *addr, n: *n, seed: *seed, block: *block,
		schedSide: *schedSide, workers: *workers, shards: *shards,
		hbEvery: *hbEvery, deadline: *deadline, workerless: *orphanT,
		heal: *heal, healMax: *healMax,
		checkpoint: *checkpoint, ckEvery: *ckEvery, resume: *resume,
		faultRate: *faultRate, faultSeed: *faultSeed,
		chaosKills: *chaosKills, chaosSeed: *chaosSeed, restartKilled: *restart,
		replica: *replica, lease: *lease, maxReconnects: *maxReconn, chaosCoord: *chaosCoord,
		memBudget: *memBudget, verify: *verify,
	}
	switch *prec {
	case "single":
		return clusterSolve[float32](ctx, cfg)
	case "double":
		return clusterSolve[float64](ctx, cfg)
	}
	return fmt.Errorf("unknown precision %q (want single or double)", *prec)
}

type clusterConfig struct {
	mode          string
	addr          string
	n             int
	seed          int64
	block         int
	schedSide     int
	workers       int
	shards        int
	hbEvery       time.Duration
	deadline      time.Duration
	workerless    time.Duration
	heal          bool
	healMax       int
	checkpoint    string
	ckEvery       int
	resume        bool
	faultRate     float64
	faultSeed     int64
	chaosKills    int
	chaosSeed     int64
	restartKilled bool
	replica       string
	lease         time.Duration
	maxReconnects int
	chaosCoord    bool
	memBudget     int64
	verify        bool
}

// clusterSolve runs coordinator or loopback mode at one element type.
func clusterSolve[E semiring.Elem](ctx context.Context, cfg clusterConfig) error {
	precName := "single"
	prec := npdp.Single
	if semiring.Width[E]() == 8 {
		prec, precName = npdp.Double, "double"
	}
	tile, err := npdp.DefaultTile(cfg.block, prec)
	if err != nil {
		return err
	}
	src := workload.Chain[E](cfg.n, cfg.seed)
	tbl := tri.ToTiled(src, tile)

	if cfg.mode == "standby" {
		return standbySolve(ctx, cfg, tbl)
	}
	if cfg.mode == "loopback" && cfg.chaosCoord {
		return chaosCoordinatorKill(ctx, cfg, tbl, tile, precName)
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	// Stdout, not the log: scripts parse this line for the bound port.
	fmt.Printf("coordinating on %s\n", ln.Addr())

	shards := cfg.shards
	if shards <= 0 {
		shards = cfg.workers
	}
	var stats cluster.Stats
	opts := cluster.Options{
		Shards: shards, SchedSide: cfg.schedSide,
		HeartbeatEvery: cfg.hbEvery, DeadlineAfter: cfg.deadline, WorkerlessAfter: cfg.workerless,
		Heal: cfg.heal, HealAttempts: cfg.healMax,
		CheckpointPath: cfg.checkpoint, CheckpointEvery: cfg.ckEvery, Resume: cfg.resume,
		ReplicaAddr: cfg.replica, MemoryBudget: cfg.memBudget,
		Stats: &stats, Logf: log.Printf,
	}

	var fleet *workerFleet
	if cfg.mode == "loopback" {
		fleet = newWorkerFleet(ln.Addr().String(), cfg, precName)
		defer fleet.reap()
		for i := 0; i < cfg.workers; i++ {
			if err := fleet.spawn(); err != nil {
				return err
			}
		}
		if cfg.chaosKills > 0 {
			m := (cfg.n + tile - 1) / tile
			g, err := sched.NewGraph(m, max(1, cfg.schedSide))
			if err != nil {
				return err
			}
			opts.OnTaskDone = fleet.chaosHook(len(g.Tasks), cfg.chaosKills, cfg.chaosSeed, cfg.restartKilled)
		}
	} else if cfg.mode != "coordinator" {
		ln.Close()
		return fmt.Errorf("unknown mode %q (want loopback, coordinator, worker or standby)", cfg.mode)
	}

	start := time.Now()
	err = cluster.Coordinate(ctx, ln, tbl, opts)
	printClusterStats(&stats, time.Since(start))
	if err != nil {
		return err
	}
	return verifyAgainstSerial(cfg, tbl)
}

// printClusterStats emits the parseable end-of-run counter line.
func printClusterStats(stats *cluster.Stats, wall time.Duration) {
	fmt.Printf("cluster: tasks=%d resumed=%d peak_workers=%d deaths=%d redispatched=%d mismatches=%d stale=%d healrounds=%d recomputed=%d restarts=%d blocks=%d bytes=%d epoch=%d fenced=%d failovers=%d repl_records=%d repl_resyncs=%d wall=%.3fs\n",
		stats.Tasks, stats.Resumed, stats.PeakWorkers, stats.WorkerDeaths, stats.Redispatched,
		stats.SealMismatches, stats.StaleResults, stats.HealRounds, stats.RecomputedTasks,
		stats.PristineRestarts, stats.BlocksStreamed, stats.BytesStreamed,
		stats.Epoch, stats.FencedWrites, stats.Failovers, stats.ReplRecords, stats.ReplResyncs,
		wall.Seconds())
	if ps := stats.PagerStats; ps != nil {
		fmt.Printf("cluster paged: spilled_blocks=%d spilled_bytes=%d fetched_blocks=%d fetched_bytes=%d faulted_pages=%d page_heals=%d resident_peak=%d\n",
			ps.SpilledBlocks, ps.SpilledBytes, ps.FetchedBlocks, ps.FetchedBytes,
			ps.FaultedPages, ps.PageHeals, ps.ResidentPeak)
	}
}

// verifyAgainstSerial re-solves the workload with the serial engine and
// requires bit-identity when -verify is set.
func verifyAgainstSerial[E semiring.Elem](cfg clusterConfig, tbl *tri.Tiled[E]) error {
	if !cfg.verify {
		return nil
	}
	ref := workload.Chain[E](cfg.n, cfg.seed)
	npdp.SolveSerial(ref)
	if i, j, av, bv, diff := tri.FirstDiff[E](ref, tbl); diff {
		return fmt.Errorf("cluster result diverges from serial engine at (%d,%d): serial %v vs cluster %v", i, j, av, bv)
	}
	fmt.Printf("verified against serial engine: identical\n")
	return nil
}

// standbySolve is `-mode standby`: tail a primary's replication stream
// and, if its lease expires, take the solve over at a bumped epoch. On
// a clean primary finish the replicated table still lands here, so
// -verify works in both outcomes.
func standbySolve[E semiring.Elem](ctx context.Context, cfg clusterConfig, tbl *tri.Tiled[E]) error {
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	// Stdout, not the log: scripts parse this line for the bound port.
	fmt.Printf("standing by on %s\n", ln.Addr())

	var stats cluster.Stats
	var sstats cluster.StandbyStats
	opts := cluster.StandbyOptions{
		Options: cluster.Options{
			// At the takeover the primary's welcome replaces shards,
			// scheduling side, heartbeat and deadline. Until then the
			// standby reads only the deadline: the lease defaults to
			// twice it, and it bounds the standby's replies.
			Shards: cfg.shards, SchedSide: cfg.schedSide,
			HeartbeatEvery: cfg.hbEvery, DeadlineAfter: cfg.deadline, WorkerlessAfter: cfg.workerless,
			Heal: cfg.heal, HealAttempts: cfg.healMax,
			Stats: &stats, Logf: log.Printf,
		},
		LeaseAfter: cfg.lease,
		OnTakeover: func(epoch uint32) {
			// Stdout: the chaos smoke greps for this exact prefix.
			fmt.Printf("standby: takeover epoch=%d\n", epoch)
		},
		StandbyStats: &sstats,
	}
	start := time.Now()
	err = cluster.RunStandby(ctx, ln, tbl, opts)
	if sstats.TookOver {
		printClusterStats(&stats, time.Since(start))
	} else {
		fmt.Printf("standby: primary finished clean: replicated=%d records=%d resyncs=%d fenced=%d wall=%.3fs\n",
			sstats.ReplicatedTasks, sstats.Records, sstats.Resyncs, sstats.FencedWrites,
			time.Since(start).Seconds())
	}
	if err != nil {
		return err
	}
	return verifyAgainstSerial(cfg, tbl)
}

// chaosCoordinatorKill is `-chaos-kill-coordinator`: the coordinator
// runs as a SUBPROCESS replicating to an in-process warm standby, so a
// real SIGKILL lands on a real process mid-wavefront. The kill is keyed
// on REPLICATED progress (the standby's replicated-task count), proving
// the takeover resumes from genuinely shipped state; workers dial the
// "primary,standby" rotation list and re-home through the epoch fence.
// The run FAILS if the primary finishes before the kill fires — a
// chaos run that never exercised failover proves nothing.
func chaosCoordinatorKill[E semiring.Elem](ctx context.Context, cfg clusterConfig, tbl *tri.Tiled[E], tile int, precName string) error {
	sbLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	sbAddr := sbLn.Addr().String()

	exe, err := os.Executable()
	if err != nil {
		return err
	}
	pri := exec.Command(exe, primaryArgs(cfg, sbAddr, precName)...)
	pri.Stderr = os.Stderr
	priOut, err := pri.StdoutPipe()
	if err != nil {
		return err
	}
	if err := pri.Start(); err != nil {
		return err
	}
	defer func() {
		pri.Process.Kill()
		pri.Wait()
	}()

	// Forward the primary's stdout, capturing its bound address.
	addrC := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(priOut)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "coordinating on "); ok {
				select {
				case addrC <- a:
				default:
				}
			}
			fmt.Printf("primary: %s\n", line)
		}
	}()
	var priAddr string
	select {
	case priAddr = <-addrC:
	case <-time.After(15 * time.Second):
		return fmt.Errorf("primary coordinator never reported its address")
	case <-ctx.Done():
		return ctx.Err()
	}

	m := (cfg.n + tile - 1) / tile
	g, err := sched.NewGraph(m, max(1, cfg.schedSide))
	if err != nil {
		return err
	}
	// Kill inside the first half of the wavefront, but only after real
	// progress has been replicated.
	killAfter := max(3, len(g.Tasks)/10)

	wcfg := cfg
	if wcfg.maxReconnects <= 0 {
		// Workers must survive the whole leaderless window (primary dead,
		// lease still ticking) on their rotation budget.
		wcfg.maxReconnects = 100
	}
	fleet := newWorkerFleet(priAddr+","+sbAddr, wcfg, precName)
	defer fleet.reap()
	for i := 0; i < cfg.workers; i++ {
		if err := fleet.spawn(); err != nil {
			return err
		}
	}

	var killOnce sync.Once
	var stats cluster.Stats
	var sstats cluster.StandbyStats
	opts := cluster.StandbyOptions{
		Options: cluster.Options{
			Shards: cfg.shards, SchedSide: cfg.schedSide,
			HeartbeatEvery: cfg.hbEvery, DeadlineAfter: cfg.deadline, WorkerlessAfter: cfg.workerless,
			Heal: cfg.heal, HealAttempts: cfg.healMax,
			Stats: &stats, Logf: log.Printf,
		},
		LeaseAfter: cfg.lease,
		OnDelta: func(done int) {
			if done >= killAfter {
				killOnce.Do(func() {
					log.Printf("cluster: chaos SIGKILL of coordinator (pid %d) after %d replicated tasks",
						pri.Process.Pid, done)
					pri.Process.Kill()
				})
			}
		},
		OnTakeover: func(epoch uint32) {
			// Stdout: the chaos smoke greps for this exact prefix.
			fmt.Printf("standby: takeover epoch=%d\n", epoch)
		},
		StandbyStats: &sstats,
	}
	if cfg.chaosKills > 0 {
		// PR 7 worker chaos rides along: the hook is wired to the
		// takeover coordinator, so these kills land post-failover, while
		// the resumed wavefront is in flight.
		opts.Options.OnTaskDone = fleet.chaosHook(len(g.Tasks), cfg.chaosKills, cfg.chaosSeed, cfg.restartKilled)
	}

	start := time.Now()
	err = cluster.RunStandby(ctx, sbLn, tbl, opts)
	printClusterStats(&stats, time.Since(start))
	if err != nil {
		return err
	}
	if !sstats.TookOver {
		return fmt.Errorf("chaos: primary finished before the coordinator kill fired (replicated=%d of %d tasks); nothing was proven",
			sstats.ReplicatedTasks, len(g.Tasks))
	}
	return verifyAgainstSerial(cfg, tbl)
}

// primaryArgs rebuilds the subprocess command line for the primary
// coordinator of a -chaos-kill-coordinator run.
func primaryArgs(cfg clusterConfig, sbAddr, prec string) []string {
	shards := cfg.shards
	if shards <= 0 {
		shards = cfg.workers
	}
	args := []string{"cluster", "-mode", "coordinator",
		"-addr", "127.0.0.1:0", "-replica", sbAddr,
		"-n", strconv.Itoa(cfg.n), "-seed", strconv.FormatInt(cfg.seed, 10),
		"-prec", prec, "-block", strconv.Itoa(cfg.block),
		"-sched-side", strconv.Itoa(cfg.schedSide), "-shards", strconv.Itoa(shards),
	}
	if cfg.hbEvery > 0 {
		args = append(args, "-heartbeat", cfg.hbEvery.String())
	}
	if cfg.deadline > 0 {
		args = append(args, "-deadline", cfg.deadline.String())
	}
	if cfg.workerless > 0 {
		args = append(args, "-workerless", cfg.workerless.String())
	}
	if cfg.heal {
		args = append(args, "-heal")
		if cfg.healMax > 0 {
			args = append(args, "-heal-attempts", strconv.Itoa(cfg.healMax))
		}
	}
	return args
}

// workerFleet owns the loopback worker subprocesses: spawning, the
// seeded SIGKILL schedule, respawns, and end-of-run reaping.
type workerFleet struct {
	addr     string
	cfg      clusterConfig
	prec     string
	mu       sync.Mutex
	next     int
	procs    map[int]*exec.Cmd
	killable []int // spawn order of live, not-yet-killed workers
}

func newWorkerFleet(addr string, cfg clusterConfig, prec string) *workerFleet {
	return &workerFleet{addr: addr, cfg: cfg, prec: prec, procs: map[int]*exec.Cmd{}}
}

// spawn re-executes this binary as `cluster -mode worker`.
func (f *workerFleet) spawn() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	id := f.next
	f.next++
	args := []string{"cluster", "-mode", "worker",
		"-connect", f.addr, "-name", "w" + strconv.Itoa(id)}
	if f.cfg.maxReconnects > 0 {
		args = append(args, "-max-reconnects", strconv.Itoa(f.cfg.maxReconnects))
	}
	if f.cfg.faultRate > 0 {
		// Every worker shares the seed, so which (task, generation)
		// attempts corrupt does not depend on who computes them.
		args = append(args,
			"-faultrate", strconv.FormatFloat(f.cfg.faultRate, 'g', -1, 64),
			"-faultseed", strconv.FormatInt(f.cfg.faultSeed, 10))
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	f.procs[id] = cmd
	f.killable = append(f.killable, id)
	log.Printf("cluster: spawned worker w%d (pid %d)", id, cmd.Process.Pid)
	return nil
}

// chaosHook builds the OnTaskDone callback implementing the seeded kill
// schedule: kill k workers at accept counts drawn from the first half
// of the wavefront, victims drawn from the live set. The count is the
// coordinator's monotone Stats.Accepted, so heals only move the kills
// earlier in the wavefront. The hook runs on the coordinator's event
// loop, so the SIGKILL happens off it.
func (f *workerFleet) chaosHook(tasks, kills int, seed int64, respawn bool) func(int, sched.Task) {
	rng := rand.New(rand.NewSource(seed))
	span := max(2, tasks/2)
	killAt := make([]int, kills)
	for i := range killAt {
		killAt[i] = 1 + rng.Intn(span)
	}
	sort.Ints(killAt)
	victims := make([]int, kills)
	for i := range victims {
		victims[i] = rng.Int()
	}
	var mu sync.Mutex
	nextKill := 0
	return func(completed int, _ sched.Task) {
		mu.Lock()
		defer mu.Unlock()
		for nextKill < len(killAt) && completed >= killAt[nextKill] {
			draw := victims[nextKill]
			nextKill++
			//nolint:npdplint(gospawn) fire-and-forget chaos SIGKILL: one bounded sleep and a signal, reaped with the fleet at process exit
			go f.kill(draw, respawn)
		}
	}
}

// kill SIGKILLs one live worker chosen by draw and optionally respawns a
// replacement after a beat — long enough for the death to be observed,
// short enough to land inside the same wavefront.
func (f *workerFleet) kill(draw int, respawn bool) {
	f.mu.Lock()
	if len(f.killable) == 0 {
		f.mu.Unlock()
		return
	}
	idx := f.killable[draw%len(f.killable)]
	f.killable = remove(f.killable, idx)
	cmd := f.procs[idx]
	f.mu.Unlock()
	log.Printf("cluster: chaos SIGKILL of worker w%d (pid %d)", idx, cmd.Process.Pid)
	cmd.Process.Kill()
	if respawn {
		time.Sleep(300 * time.Millisecond)
		if err := f.spawn(); err != nil {
			log.Printf("cluster: respawning after chaos kill: %v", err)
		}
	}
}

func remove(s []int, v int) []int {
	out := s[:0]
	for _, x := range s {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

// reap waits for every worker process, escalating to SIGKILL for any
// that outlives the coordinator by more than a grace period.
func (f *workerFleet) reap() {
	f.mu.Lock()
	procs := make([]*exec.Cmd, 0, len(f.procs))
	for _, cmd := range f.procs {
		procs = append(procs, cmd)
	}
	f.mu.Unlock()
	for _, cmd := range procs {
		done := make(chan struct{})
		go func(cmd *exec.Cmd) {
			cmd.Wait()
			close(done)
		}(cmd)
		select {
		case <-done:
		case <-time.After(3 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	}
}
