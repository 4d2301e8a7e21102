// Command cellnpdp solves a seeded NPDP instance with a chosen engine and
// reports timing, work counts and (for the cell engine) the modeled QS20
// execution time and DMA traffic.
//
// Usage:
//
//	cellnpdp -n 2048 -engine parallel -workers 8
//	cellnpdp -n 1024 -engine cell -prec double
//
// The serve subcommand runs the long-running solve service instead
// (admission control, overload protection, result integrity):
//
//	cellnpdp serve -addr 127.0.0.1:8080 -budget 2147483648 -rate 50
//
// The cluster subcommand runs the sharded coordinator/worker solve —
// by default a loopback multi-process cluster, with an optional seeded
// chaos schedule that SIGKILLs workers mid-wavefront:
//
//	cellnpdp cluster -n 2048 -cluster-workers 3 -verify
//	cellnpdp cluster -n 2048 -cluster-workers 3 -chaos-kills 1 -heal -faultrate 0.2 -verify
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"cellnpdp"
	"cellnpdp/internal/cachesim"
	"cellnpdp/internal/tableio"
	"cellnpdp/internal/tri"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cellnpdp: ")
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := runServe(os.Args[2:]); err != nil {
			log.Fatal(err)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "cluster" {
		if err := runCluster(os.Args[2:]); err != nil {
			log.Fatal(err)
		}
		return
	}
	var (
		n       = flag.Int("n", 1024, "problem size (DP points)")
		engine  = flag.String("engine", "parallel", "engine: serial, tiled, parallel or cell")
		workers = flag.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
		block   = flag.Int("block", 32*1024, "memory-block budget in bytes")
		prec    = flag.String("prec", "single", "precision: single or double")
		seed    = flag.Int64("seed", 1, "workload seed")
		save    = flag.String("save", "", "write the solved table to this file")
		check   = flag.String("check", "", "compare the solved table against this saved file")

		timeout    = flag.Duration("timeout", 0, "abort the solve after this duration (0 = no limit)")
		checkpoint = flag.String("checkpoint", "", "tiled/parallel engines: keep a checkpoint (a spill file) at this path")
		ckEvery    = flag.Int("checkpoint-every", 0, "checkpoint commit period in completed tasks (0 = default 16)")
		resume     = flag.Bool("resume", false, "resume the solve from -checkpoint")
		faultRate  = flag.Float64("faultrate", 0, "parallel engine: inject transient faults at this per-attempt rate")
		faultSeed  = flag.Int64("faultseed", 1, "fault-injection seed (deterministic per seed)")
		faultKinds = flag.String("faultkinds", "", "comma-separated injected fault kinds: error, panic, delay, corrupt (empty = error)")
		retries    = flag.Int("retries", 3, "parallel engine: max retries per task for transient failures")
		fallback   = flag.Bool("fallback", true, "degrade parallel failures to the serial tiled engine")
		heal       = flag.Bool("heal", false, "seal completed blocks and recompute the poisoned cone on corruption")
		healMax    = flag.Int("heal-attempts", 0, "max poisoned-cone recompute rounds (0 = engine default)")
		auditEvery = flag.Int("audit-every", 0, "parallel engine: re-verify block seals every N task executions (0 = post-solve only)")

		memBudget     = flag.Int64("memory-budget", 0, "run out of core: cap the resident block working set at roughly this many bytes (tiled/parallel engines)")
		diskFaultRate = flag.Float64("disk-faultrate", 0, "out of core: inject disk faults into spill I/O at this per-operation rate")
		diskFaultSeed = flag.Int64("disk-faultseed", 1, "disk-fault-injection seed (deterministic per seed)")
		diskFaults    = flag.String("disk-faultkinds", "", "comma-separated injected disk fault kinds: eio, torn, flip, enospc (empty = all)")
	)
	flag.Parse()

	eng, err := parseEngine(*engine)
	if err != nil {
		log.Fatal(err)
	}
	// Out-of-range resilience knobs fail loudly here instead of being
	// silently accepted or clamped downstream.
	if *faultRate < 0 || *faultRate > 1 {
		log.Fatalf("-faultrate must be in [0, 1], got %g", *faultRate)
	}
	if *retries < 0 {
		log.Fatalf("-retries must be non-negative, got %d", *retries)
	}
	if *ckEvery < 0 {
		log.Fatalf("-checkpoint-every must be non-negative, got %d", *ckEvery)
	}
	if *healMax < 0 {
		log.Fatalf("-heal-attempts must be non-negative, got %d", *healMax)
	}
	if *auditEvery < 0 {
		log.Fatalf("-audit-every must be non-negative, got %d", *auditEvery)
	}
	if *diskFaultRate < 0 || *diskFaultRate > 1 {
		log.Fatalf("-disk-faultrate must be in [0, 1], got %g", *diskFaultRate)
	}
	if *memBudget < 0 {
		log.Fatalf("-memory-budget must be non-negative, got %d", *memBudget)
	}
	opts := cellnpdp.Options{
		Engine: eng, Workers: *workers, BlockBytes: *block,
		MaxRetries: *retries, FaultRate: *faultRate, FaultSeed: *faultSeed,
		FaultKinds:     *faultKinds,
		CheckpointPath: *checkpoint, CheckpointEvery: *ckEvery, Resume: *resume,
		NoFallback: !*fallback, Logf: log.Printf,
		Heal: *heal, HealAttempts: *healMax, AuditEvery: *auditEvery,
		MemoryBudget: *memBudget, DiskFaultRate: *diskFaultRate, DiskFaultSeed: *diskFaultSeed, DiskFaultKinds: *diskFaults,
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	io := fileOps{save: *save, check: *check}
	switch *prec {
	case "single":
		if err := run[float32](ctx, *n, *seed, opts, io); err != nil {
			log.Fatal(err)
		}
	case "double":
		if err := run[float64](ctx, *n, *seed, opts, io); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown precision %q (want single or double)", *prec)
	}
}

// fileOps carries the optional save/check actions.
type fileOps struct {
	save  string
	check string
}

func parseEngine(s string) (cellnpdp.Engine, error) {
	switch s {
	case "serial":
		return cellnpdp.Serial, nil
	case "tiled":
		return cellnpdp.Tiled, nil
	case "parallel":
		return cellnpdp.Parallel, nil
	case "cell":
		return cellnpdp.Cell, nil
	}
	return 0, fmt.Errorf("unknown engine %q (want serial, tiled, parallel or cell)", s)
}

func run[E cellnpdp.Elem](ctx context.Context, n int, seed int64, opts cellnpdp.Options, io fileOps) error {
	tbl, err := cellnpdp.NewTable[E](n)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i+1 < n; i++ {
		if err := tbl.Set(i, i+1, E(1+rng.Float64()*99)); err != nil {
			return err
		}
	}
	res, err := cellnpdp.SolveCtx(ctx, tbl, opts)
	if err != nil {
		return err
	}
	if res.ResumedTasks > 0 {
		fmt.Printf("resumed %d tasks from %s\n", res.ResumedTasks, opts.CheckpointPath)
	}
	if res.Paged && res.PagerStats != nil {
		ps := res.PagerStats
		fmt.Printf("paged spilled_blocks=%d spilled_bytes=%d fetched_blocks=%d fetched_bytes=%d pristine_bytes=%d faulted_pages=%d page_heals=%d enospc_degradations=%d resident_peak=%d\n",
			ps.SpilledBlocks, ps.SpilledBytes, ps.FetchedBlocks, ps.FetchedBytes, ps.PristineBytes,
			ps.FaultedPages, ps.PageHeals, ps.ENOSPCDegradations, ps.ResidentPeak)
		var e E
		if bound := cachesim.IOLowerBound(n, tableio.ElemWidth(e), opts.MemoryBudget); bound > 0 {
			achieved := ps.DiskBytes()
			fmt.Printf("paged disk traffic: achieved=%d bytes, io_lower_bound=%d bytes (ratio %.2f)\n",
				achieved, bound, float64(achieved)/float64(bound))
		}
	}
	if res.Degraded {
		fmt.Printf("degraded to tiled engine: %s\n", res.DegradedReason)
	}
	if res.CorruptBlocks > 0 {
		fmt.Printf("detected %d corrupt blocks; %d heal rounds recomputed %d tasks", res.CorruptBlocks, res.HealRounds, res.RecomputedTasks)
		if res.HealFallback {
			fmt.Printf(" (pristine-restart fallback used)")
		}
		fmt.Printf("\n")
	}
	// A stable checksum so different engines can be diffed from the shell.
	var sum float64
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			v, err := tbl.At(i, j)
			if err != nil {
				return err
			}
			if float64(v) < 1e29 {
				sum += float64(v)
			}
		}
	}
	if io.save != "" || io.check != "" {
		solved := tri.NewRowMajor[E](n)
		for j := 0; j < n; j++ {
			for i := 0; i <= j; i++ {
				v, err := tbl.At(i, j)
				if err != nil {
					return err
				}
				solved.Set(i, j, v)
			}
		}
		if io.save != "" {
			f, err := os.Create(io.save)
			if err != nil {
				return err
			}
			if err := tableio.Write(f, solved); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("saved solved table to %s\n", io.save)
		}
		if io.check != "" {
			f, err := os.Open(io.check)
			if err != nil {
				return err
			}
			defer f.Close()
			want, err := tableio.Read[E](f)
			if err != nil {
				return err
			}
			if i, j, av, bv, diff := tri.FirstDiff[E](want, solved); diff {
				return fmt.Errorf("mismatch against %s at (%d,%d): file %v vs computed %v", io.check, i, j, av, bv)
			}
			fmt.Printf("verified against %s: identical\n", io.check)
		}
	}
	top, _ := tbl.At(0, n-1)
	fmt.Fprintf(os.Stdout, "engine=%v n=%d relaxations=%d wall=%.3fs\n", res.Engine, n, res.Relaxations, res.WallSeconds)
	if res.Engine == cellnpdp.Cell {
		fmt.Fprintf(os.Stdout, "modeled QS20 time=%.6fs dma=%d bytes\n", res.ModeledSeconds, res.DMABytes)
	}
	fmt.Fprintf(os.Stdout, "d[0][n-1]=%v checksum=%.6g\n", top, sum)
	return nil
}
