package main

import (
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cellnpdp/internal/kernel"
	"cellnpdp/internal/npdp"
	"cellnpdp/internal/perfmodel"
	"cellnpdp/internal/resilience"
	"cellnpdp/internal/semiring"
)

// A run sets its workload up setupsBefore times before the window, the
// last of which the window drives, and setupsAfter times after it;
// setup_s is the median. Timing set-up on both sides of the window
// samples the machine as the window saw it, not only its first seconds.
const (
	setupsBefore = 3
	setupsAfter  = 2
)

// window drives r as a closed loop — each caller sends its next op only
// after the previous one returned — until seconds have passed, and
// returns every op in start order. Op ids start at 1. A lone caller
// collects the heap before each op, outside the timer, so that an op
// starts from the heap a single solve would see and the previous op's
// garbage does not land in a random later op or in the peak RSS.
func window(r runner, seconds float64, traced func(id int) bool) []sample {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var next atomic.Int64
	per := make([][]sample, r.callers())
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				if len(per) == 1 {
					runtime.GC()
				}
				id := int(next.Add(1))
				per[c] = append(per[c], r.op(id, traced(id)))
				if !time.Now().Before(deadline) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, ss := range per {
		all = append(all, ss...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start.Before(all[j].start) })
	return all
}

// tally counts a window's ops into rec and returns the first error.
func tally(rec *runRecord, ss []sample) {
	for _, s := range ss {
		rec.Attempted++
		if s.ok {
			continue
		}
		rec.Failed++
		if rec.FirstErr == "" {
			if s.err != nil {
				rec.FirstErr = s.err.Error()
			} else {
				rec.FirstErr = "output differs from the serial oracle"
			}
		}
	}
}

// runWorkload runs one workload in this process and returns its record:
// the end-to-end metrics, or with cfg.trace the per-layer ones. An error
// means nothing was measured.
func runWorkload(cfg config, name string, log io.Writer) (*runRecord, error) {
	w, ok := findWorkload(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	calibration, err := loadCalibration(cfg.root)
	if err != nil {
		return nil, err
	}
	rec := &runRecord{
		Workload: name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Short: cfg.short,
		Host:    hostInfo(filepath.Join(cfg.root, ".bench_build"), calibration),
		Metrics: map[string]metricValue{},
	}
	h := rec.Host
	fmt.Fprintf(log, "# %s seed=%d seconds=%g trace=%v nproc=%d gomaxprocs=%d %s/%s go=%s cpu=%q l2=%d l3=%d spill_fs=%s calibration=%s\n",
		name, cfg.seed, cfg.seconds, cfg.trace, h.NProc, h.GOMAXPROCS, h.GOARCH, h.VectorISA, h.GoVersion,
		h.CPUModel, h.L2Bytes, h.L3Bytes, h.SpillFS, h.Calibration)
	if h.Label != "" {
		fmt.Fprintf(log, "!!!!!!!! WARNING: %s !!!!!!!!\n", h.Label)
	}
	e := newEnv(cfg)
	if cfg.trace {
		err = traceRun(e, w, rec)
	} else {
		err = measure(e, w, rec)
	}
	if err != nil {
		return nil, err
	}
	rec.Correct = rec.Failed == 0
	if rec.FirstErr != "" {
		fmt.Fprintf(log, "# %d of %d ops failed; first: %s\n", rec.Failed, rec.Attempted, rec.FirstErr)
	}
	return rec, nil
}

// loadCalibration installs the stage-1 calibration section matching this
// host, as the CLI does, and names what was loaded.
func loadCalibration(root string) (string, error) {
	const file = "scripts/kernel_calibration.txt"
	loaded, err := perfmodel.LoadCalibrationFile(filepath.Join(root, file), runtime.GOARCH, kernel.VectorISA())
	if err != nil {
		return "", err
	}
	cal := perfmodel.ActiveCalibration(runtime.GOARCH, kernel.VectorISA())
	if !loaded {
		return fmt.Sprintf("built-in defaults [%s/%s]", cal.Arch, cal.ISA), nil
	}
	return fmt.Sprintf("%s [%s/%s]", file, cal.Arch, cal.ISA), nil
}

// measure is the untraced run: the set-ups around one measured window,
// then the end-to-end metrics.
func measure(e *env, w workload, rec *runRecord) error {
	if err := w.prepare(e); err != nil {
		return err
	}
	var setups []float64
	setUp := func() (runner, error) {
		runtime.GC()
		start := time.Now()
		r, err := w.setup(e)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		return r, nil
	}
	var r runner
	for i := 0; i < setupsBefore; i++ {
		if r != nil {
			r.close()
		}
		var err error
		if r, err = setUp(); err != nil {
			return err
		}
	}
	before := totalAlloc()
	ss := window(r, e.cfg.seconds, func(int) bool { return false })
	windowAlloc := totalAlloc() - before
	r.close()
	tally(rec, ss)
	// Read before the later set-ups, so the peak is the window's.
	rss, err := peakRSS()
	if err != nil {
		return err
	}
	for i := 0; i < setupsAfter; i++ {
		later, err := setUp()
		if err != nil {
			return err
		}
		later.close()
	}

	var lats []float64
	var busy []interval
	var relax int64
	var alloc uint64
	for _, s := range ss {
		alloc += s.alloc
		if s.ok {
			lats = append(lats, s.seconds())
			busy = append(busy, interval{float64(s.start.UnixNano()), float64(s.end.UnixNano())})
			relax += s.relax
		}
	}
	if len(lats) == 0 {
		return fmt.Errorf("%s: no op succeeded (%s)", w.name, rec.FirstErr)
	}
	busyNs := 0.0
	for _, x := range union(busy) {
		busyNs += x.hi - x.lo
	}
	// One caller's allocations are bracketed around each timed call, so
	// the benchmark's own copies and checks stay out; concurrent callers
	// cannot be bracketed apart, so the window's total is divided.
	perOp := float64(alloc) / float64(len(ss))
	if r.callers() > 1 {
		perOp = float64(windowAlloc) / float64(len(ss))
	}
	sort.Float64s(lats)
	put := func(name string, v float64) { rec.Metrics[name] = metricValue{v, unitOf(endToEnd, name)} }
	put("setup_s", median(setups))
	put("latency_p50_s", quantile(lats, 0.5))
	put("latency_p90_s", quantile(lats, 0.9))
	put("relax_per_s", float64(relax)/(busyNs/1e9))
	put("peak_rss_bytes", float64(rss))
	put("alloc_bytes_per_op", perOp)
	return nil
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("bench: undeclared metric " + name)
}

// afterTracer is a runner that measures more once its traced window ends.
type afterTracer interface {
	afterTrace(ops int) (map[string]float64, error)
}

// traceRun is the traced run. The chosen workload gets the full window,
// alternating untraced and traced ops so the tracing overhead is
// measured under the same conditions; each other workload then runs a
// tenth of a window fully traced. A per-layer metric comes from the
// chosen workload when it exercises that layer, and otherwise from the
// first other workload that does, so every traced run reports them all.
func traceRun(e *env, main workload, rec *runRecord) error {
	e.tr = newTracer()
	layer := map[string]float64{}
	keep := func(k string, v float64) {
		if _, ok := layer[k]; !ok {
			layer[k] = v
		}
	}
	probe, models := kernelProbes(e.cfg.n())
	for k, v := range probe {
		layer[k] = v
	}
	rec.SelfS = map[string]map[string]float64{}
	var inmemMakespan float64 // the in-memory solve the paged and cluster solves are set against
	schedFrom := ""
	order := []workload{main}
	for _, w := range workloads {
		if w.name != main.name {
			order = append(order, w)
		}
	}
	for _, w := range order {
		if err := w.prepare(e); err != nil {
			return err
		}
		r, err := w.setup(e)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", w.name, err)
		}
		seconds, traced := e.cfg.seconds/10, func(int) bool { return true }
		if w.name == main.name {
			seconds, traced = e.cfg.seconds, func(id int) bool { return id%2 == 0 }
		}
		ss := window(r, seconds, traced)
		var extra map[string]float64
		if at, ok := r.(afterTracer); ok {
			extra, err = at.afterTrace(len(ss))
		}
		r.close()
		if err != nil {
			return err
		}
		tally(rec, ss)
		perOp := map[string][]float64{}
		selfs := map[string][]float64{}
		var plain, withSpans, ratios, measured, model []float64
		for _, s := range ss {
			if s.status != 0 {
				layer[fmt.Sprintf("serve.status_%d", s.status)]++
			}
			if !s.ok {
				continue
			}
			if !s.traced {
				plain = append(plain, s.seconds())
				ratios = append(ratios, s.measured/s.model)
				measured, model = append(measured, s.measured), append(model, s.model)
				continue
			}
			withSpans = append(withSpans, s.seconds())
			for k, v := range s.layer {
				perOp[k] = append(perOp[k], v)
			}
			for k, v := range s.self {
				selfs[k] = append(selfs[k], v)
			}
		}
		for k, vs := range perOp {
			keep(k, median(vs))
		}
		for k, v := range extra {
			keep(k, v)
		}
		if _, ok := layer["sched.makespan_s"]; ok && schedFrom == "" {
			schedFrom = w.name
		}
		if w.name == "inmem-2048" {
			inmemMakespan = median(perOp["sched.makespan_s"])
		}
		if len(withSpans) == 0 {
			return fmt.Errorf("%s: no traced op succeeded (%s)", w.name, rec.FirstErr)
		}
		self := map[string]float64{}
		selfSum := 0.0
		for k, vs := range selfs {
			// An op whose spans never reach a layer has zero self time
			// there; pad so the median is over every traced op.
			vs = append(vs, make([]float64, len(withSpans)-len(vs))...)
			self[k] = median(vs)
			selfSum += self[k]
		}
		rec.SelfS[w.name] = self
		if w.name != main.name {
			continue
		}
		if len(plain) == 0 {
			return fmt.Errorf("%s: no untraced op succeeded (%s)", w.name, rec.FirstErr)
		}
		base := median(plain)
		layer["trace.overhead_frac"] = median(withSpans)/base - 1
		layer["trace.self_sum_frac"] = selfSum / base
		layer["perfmodel.measured_over_model"] = median(ratios)
		layer["perfmodel.predicted_s"] = median(model)
		models = append(models,
			modelPair{"perfmodel.measured_over_model", median(ratios), median(measured), median(model), "s",
				main.name + " median solve seconds / EstimateSolve PredictedSeconds (QS20 constants: a relative oracle)"},
			modelPair{"trace.self_sum_frac", layer["trace.self_sum_frac"], selfSum, base, "s",
				main.name + " sum of median per-layer self times / untraced latency p50"})
	}
	for _, code := range []int{200, 429, 503, 500} {
		layer[fmt.Sprintf("serve.status_%d", code)] += 0 // a status never seen is reported as 0
	}
	layer["pager.overhead_s"] = layer["pager.solve_s"] - inmemMakespan
	layer["cluster.overhead_s"] = layer["cluster.coordinate_s"] - inmemMakespan
	models = append(models,
		modelPair{"pager.io_bound_ratio", layer["pager.io_bound_ratio"], layer["pager.disk_bytes_per_op"], layer["pager.io_bound_bytes"], "B",
			"paged-2048 spill traffic per solve / cachesim.IOLowerBound(n, 4, MemoryBudget)"},
		modelPair{"sched.bound_ratio", layer["sched.bound_ratio"], layer["sched.makespan_s"],
			layer["sched.makespan_s"] / layer["sched.bound_ratio"], "s",
			schedFrom + " pool makespan / max(critical path, task busy / workers); the critical path is modeled: " +
				"sched.RunDES with one worker per task at the measured task times"})
	rec.Models = models
	rec.Modeled = []string{"sched.critical_path_s", "sched.bound_ratio"}
	for _, d := range perLayer {
		v, ok := layer[d.name]
		if !ok {
			return fmt.Errorf("traced run measured no %s", d.name)
		}
		rec.Metrics[d.name] = metricValue{v, d.unit}
	}
	return e.tr.write(filepath.Join(e.cfg.root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", main.name, e.cfg.seed)))
}

// kernelProbes times the stage-1 and stage-2 kernels and the block seal
// on one memory block each, at the tile sides the engines use, and pairs
// the float32 stage-1 cost with its calibration entry.
func kernelProbes(n int) (map[string]float64, []modelPair) {
	t32, _ := npdp.DefaultTile(blockBytes, npdp.Single)
	t64, _ := npdp.DefaultTile(blockBytes, npdp.Double)
	mul32, _ := npdp.ResolveStage1Shape[float32](perfmodel.KernelAuto, t32, n)
	mul64, _ := npdp.ResolveStage1Shape[float64](perfmodel.KernelAuto, t64, n)
	c, a, b := randBlock[float32](t32, 1), randBlock[float32](t32, 2), randBlock[float32](t32, 3)
	c64, a64, b64 := randBlock[float64](t64, 1), randBlock[float64](t64, 2), randBlock[float64](t64, 3)
	cube := func(t int) float64 { return float64(t) * float64(t) * float64(t) }
	out := map[string]float64{
		"kernel.stage1_ns_per_cell.f32": nsPer(cube(t32), func() { mul32(c, a, b, t32) }),
		"kernel.stage1_ns_per_cell.f64": nsPer(cube(t64), func() { mul64(c64, a64, b64, t64) }),
		"kernel.stage2_ns_per_cell": nsPer(float64(kernel.StatsStage2OffDiag(t32).Relaxations()),
			func() { kernel.Stage2OffDiag(c, a, b, t32) }),
		"cluster.crc_ns_per_byte": nsPer(float64(4*len(c)), func() { resilience.BlockCRC(c) }),
	}
	picked := perfmodel.PickKernel(perfmodel.Shape{Block: t32, N: n, Float32: true}, runtime.GOARCH, kernel.VectorISA())
	cal := perfmodel.ActiveCalibration(runtime.GOARCH, kernel.VectorISA())
	side, ns := nearestBlock(cal.NsPerCell[picked], t32)
	out["kernel.stage1_model_ratio"] = out["kernel.stage1_ns_per_cell.f32"] / ns
	return out, []modelPair{{"kernel.stage1_model_ratio", out["kernel.stage1_model_ratio"],
		out["kernel.stage1_ns_per_cell.f32"], ns, "ns/cell",
		fmt.Sprintf("%s kernel at t=%d / calibration [%s/%s] %s t=%d", picked, t32, cal.Arch, cal.ISA, picked, side)}}
}

// nearestBlock is the calibration entry PickKernel would read for side
// t: the nearest measured block side, ties to the smaller.
func nearestBlock(m map[int]float64, t int) (int, float64) {
	best, bestD := 0, -1
	for side := range m {
		d := max(side-t, t-side)
		if bestD < 0 || d < bestD || (d == bestD && side < best) {
			best, bestD = side, d
		}
	}
	return best, m[best]
}

// nsPer returns the median over five trials of fn's nanoseconds per unit
// of work, each trial repeating fn for at least 5 ms.
func nsPer(work float64, fn func()) float64 {
	fn()
	reps := 1
	for {
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		if time.Since(start) >= 5*time.Millisecond {
			break
		}
		reps *= 2
	}
	trials := make([]float64, 5)
	for k := range trials {
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		trials[k] = float64(time.Since(start).Nanoseconds()) / (work * float64(reps))
	}
	return median(trials)
}

func randBlock[E semiring.Elem](t int, seed int64) []E {
	rng := rand.New(rand.NewSource(seed))
	out := make([]E, t*t)
	for i := range out {
		out[i] = E(rng.Float64() * 8)
	}
	return out
}
