package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cellnpdp"
	"cellnpdp/internal/cachesim"
	"cellnpdp/internal/cluster"
	"cellnpdp/internal/kernel"
	"cellnpdp/internal/npdp"
	"cellnpdp/internal/pager"
	"cellnpdp/internal/perfmodel"
	"cellnpdp/internal/sched"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/serve"
	"cellnpdp/internal/tri"
	gen "cellnpdp/internal/workload"
)

// config is one benchmark process's settings.
type config struct {
	seed    int64
	seconds float64
	short   bool
	trace   bool
	root    string // repository root: holds BENCHMARK.json and .bench_build
	// flipOp, when positive, flips one output cell of that op before the
	// oracle check — the seam the smoke test proves the check with.
	flipOp int
}

// n is the problem size of the fixed-size workloads.
func (c config) n() int {
	if c.short {
		return 512
	}
	return 2048
}

// blockBytes is the memory-block budget every engine defaults to.
const blockBytes = 32 * 1024

// clusterWorkers is cluster-2048's worker count and shard count.
const clusterWorkers = 2

// env is what the workloads of one process share: the configuration,
// the serial oracles (computed once, outside every timer), and the
// tracer of a traced run.
type env struct {
	cfg   config
	procs int // solve workers: GOMAXPROCS, the engines' default
	tr    *tracer
	refs  map[int]*tri.RowMajor[float32] // n → solved chain instance
	mix   []mixRequest                   // serve-mix request sequence
	warm  []mixRequest                   // serve-mix warm-up requests
	mixOK map[instKey]*serveRef          // serve-mix oracles
}

func newEnv(cfg config) *env {
	return &env{cfg: cfg, procs: runtime.GOMAXPROCS(0), refs: make(map[int]*tri.RowMajor[float32])}
}

// A workload is one closed-loop input the benchmark drives. Why each
// was chosen is recorded in BENCHMARK.json and README.md.
type workload struct {
	name string
	// prepare computes the oracles; it is not part of set-up time.
	prepare func(e *env) error
	// setup builds the instance, starts whatever the op talks to, and
	// runs the warm-up.
	setup func(e *env) (runner, error)
}

var workloads = []workload{
	{"inmem-2048", prepareChain, setupInmem},
	{"paged-2048", prepareChain, setupPaged},
	{"serve-mix", prepareMix, setupServe},
	{"cluster-2048", prepareChain, setupCluster},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runner drives one set-up workload. op may be called from callers()
// goroutines at once.
type runner interface {
	callers() int
	op(id int, traced bool) sample
	close()
}

// sample is one op.
type sample struct {
	start, end time.Time
	relax      int64
	alloc      uint64 // bytes allocated inside the timed interval (one-caller workloads)
	ok         bool   // no error and the output matched the oracle
	err        error
	traced     bool
	status     int // serve-mix: HTTP status
	// measured and model pair the op with the Section V prediction:
	// the solve's seconds and EstimateSolve's PredictedSeconds.
	measured, model float64
	layer           map[string]float64 // traced ops: per-layer numbers
	self            map[string]float64 // traced ops: self time by layer
}

func (s sample) seconds() float64 { return s.end.Sub(s.start).Seconds() }

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// prepareChain solves the seed's float32 chain instance serially: the
// oracle of inmem-2048, paged-2048 and cluster-2048 alike.
func prepareChain(e *env) error {
	n := e.cfg.n()
	if e.refs[n] == nil {
		ref := gen.Chain[float32](n, e.cfg.seed)
		npdp.SolveSerial(ref)
		e.refs[n] = ref
	}
	return nil
}

// publicInstance builds the chain instance through the public API, the
// way serve builds its requests' instances.
func publicInstance[E cellnpdp.Elem](src *tri.RowMajor[E]) (*cellnpdp.Table[E], error) {
	n := src.Len()
	t, err := cellnpdp.NewTable[E](n)
	if err != nil {
		return nil, err
	}
	for i := 0; i+1 < n; i++ {
		if err := t.Set(i, i+1, src.At(i, i+1)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// publicCopy copies every cell of t into a public table.
func publicCopy[E cellnpdp.Elem](t *tri.RowMajor[E]) (*cellnpdp.Table[E], error) {
	n := t.Len()
	out, err := cellnpdp.NewTable[E](n)
	if err != nil {
		return nil, err
	}
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			if err := out.Set(i, j, t.At(i, j)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// samePublic reports whether t equals the oracle bit for bit.
func samePublic(t *cellnpdp.Table[float32], ref *tri.RowMajor[float32]) bool {
	n := ref.Len()
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			v, err := t.At(i, j)
			if err != nil || math.Float32bits(v) != math.Float32bits(ref.At(i, j)) {
				return false
			}
		}
	}
	return t.Len() == n
}

// sameTable is samePublic for the internal layouts.
func sameTable(t tri.Table[float32], ref *tri.RowMajor[float32]) bool {
	n := ref.Len()
	if t.Len() != n {
		return false
	}
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			if math.Float32bits(t.At(i, j)) != math.Float32bits(ref.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// flips reports whether op id is the one config.flipOp corrupts.
func (e *env) flips(id int) bool { return e.cfg.flipOp > 0 && id == e.cfg.flipOp }

// flip perturbs the solved objective d[0][n-1] of op flipOp.
func (e *env) flip(id int, t tri.Table[float32]) {
	if e.flips(id) {
		n := t.Len()
		t.Set(0, n-1, t.At(0, n-1)+1)
	}
}

func warmUp(r runner) error { return warmed(r.op(0, false)) }

// warmed reports a failed warm-up op as an error.
func warmed(s sample) error {
	if s.err != nil {
		return fmt.Errorf("warm-up op: %w", s.err)
	}
	if !s.ok {
		return errors.New("warm-up op: output differs from the serial oracle")
	}
	return nil
}

// spanSeconds is the length of span id.
func spanSeconds(ot *opTrace, id int) float64 { return (ot.spans[id].End - ot.spans[id].Start) / 1e6 }

// solveRun is inmem-2048 and paged-2048: cellnpdp.SolveCtx with the
// Parallel engine on a fresh copy of the instance made outside the
// timer; paged-2048 sets a memory budget of a quarter of the tiled table,
// so the solve spills to a fresh temp dir.
type solveRun struct {
	e      *env
	tile   int
	src    *tri.RowMajor[float32]
	table  *cellnpdp.Table[float32]
	ref    *tri.RowMajor[float32]
	budget int64 // 0: in memory
	model  float64
}

func setupInmem(e *env) (runner, error) { return setupSolve(e, false) }
func setupPaged(e *env) (runner, error) { return setupSolve(e, true) }

func setupSolve(e *env, paged bool) (runner, error) {
	n := e.cfg.n()
	tile, err := npdp.DefaultTile(blockBytes, npdp.Single)
	if err != nil {
		return nil, err
	}
	est, err := cellnpdp.EstimateSolve[float32](n, cellnpdp.Options{Engine: cellnpdp.Parallel})
	if err != nil {
		return nil, err
	}
	r := &solveRun{e: e, tile: tile, src: gen.Chain[float32](n, e.cfg.seed), ref: e.refs[n], model: est.PredictedSeconds}
	if paged {
		r.budget = est.TableBytes / 4
	}
	if r.table, err = publicInstance(r.src); err != nil {
		return nil, err
	}
	return r, warmUp(r)
}

func (r *solveRun) callers() int { return 1 }
func (r *solveRun) close()       {}

func (r *solveRun) op(id int, traced bool) sample {
	switch {
	case traced && r.budget > 0:
		return r.replayPaged(id)
	case traced:
		return r.replayInmem(id)
	}
	work := r.table.Clone()
	s := sample{model: r.model}
	before := totalAlloc()
	s.start = time.Now()
	res, err := cellnpdp.SolveCtx(context.Background(), work, cellnpdp.Options{Engine: cellnpdp.Parallel, MemoryBudget: r.budget})
	s.end = time.Now()
	s.alloc = totalAlloc() - before
	s.measured = s.seconds()
	if err != nil {
		s.err = err
		return s
	}
	s.relax = res.Relaxations
	if r.e.flips(id) {
		v, _ := work.At(0, work.Len()-1)
		work.Set(0, work.Len()-1, v+1)
	}
	s.ok = samePublic(work, r.ref)
	return s
}

func (r *solveRun) replayInmem(id int) sample {
	s, rm := replayParallel(r.e, "inmem-2048", id, r.src, r.tile)
	s.model = r.model
	if s.err == nil {
		r.e.flip(id, rm)
		s.ok = sameTable(rm, r.ref)
	}
	return s
}

// replayParallel runs the Parallel engine's in-memory path on a copy of
// src one public call at a time, with a span around each: tri.ToTiled,
// npdp.ResolveStage1, sched.NewGraph, sched.RunPoolCtx running
// npdp.ComputeTask per task, then tri.Copy back. It returns the solved
// copy unchecked.
func replayParallel[E semiring.Elem](e *env, workload string, id int, src *tri.RowMajor[E], tile int) (sample, *tri.RowMajor[E]) {
	rm := src.Clone()
	ot := e.tr.begin(workload, id)
	s := sample{traced: true}
	s.start = time.Now()
	root := ot.open("op", "bench", -1)
	var (
		tt  *tri.Tiled[E]
		mul npdp.Stage1Func[E]
		g   *sched.Graph
		err error
	)
	toTiled := ot.call("tri.ToTiled", "tri", root, func() { tt = tri.ToTiled(rm, tile) })
	ot.call("npdp.ResolveStage1", "npdp", root, func() { mul, err = npdp.ResolveStage1[E](perfmodel.KernelAuto, tt) })
	if err == nil {
		ot.call("sched.NewGraph", "sched", root, func() { g, err = sched.NewGraph(tt.Blocks(), 1) })
	}
	if err != nil {
		s.end, s.err = time.Now(), err
		return s, rm
	}
	pt := newPoolTimes(len(g.Tasks))
	poolStart := time.Now()
	err = sched.RunPoolCtx(context.Background(), g, e.procs, sched.PoolRunOptions{}, func(worker int, task sched.Task) error {
		pt.start[task.ID] = time.Now()
		pt.relax[task.ID] = npdp.ComputeTask(tt, task, mul).Relaxations()
		pt.end[task.ID] = time.Now()
		pt.worker[task.ID] = worker
		return nil
	})
	poolEnd := time.Now()
	pool := ot.add("sched.RunPoolCtx", "sched", root, 0, poolStart, poolEnd)
	if err != nil {
		s.end, s.err = time.Now(), err
		return s, rm
	}
	for tid := range g.Tasks {
		ot.add("npdp.ComputeTask", "npdp", pool, pt.worker[tid], pt.start[tid], pt.end[tid])
		s.relax += pt.relax[tid]
	}
	copyBack := ot.call("tri.Copy", "tri", root, func() { tri.Copy[E](rm, tt) })
	ot.close(root)
	s.end = time.Now()
	s.measured = s.seconds()
	if s.layer, s.err = schedLayer(g, pt, poolStart, poolEnd, e.procs); s.err != nil {
		return s, rm
	}
	s.layer["tri.to_tiled_s"] = spanSeconds(ot, toTiled)
	s.layer["tri.copy_back_s"] = spanSeconds(ot, copyBack)
	s.self = ot.finish()
	return s, rm
}

// replayPaged runs the paged path one public call at a time: tri.ToTiled,
// pager.Create, npdp.SolvePagedCtx, pager.Materialize, pager.Close and
// tri.Copy back, with the frame budget SolveCtx derives.
func (r *solveRun) replayPaged(id int) sample {
	rm := r.src.Clone()
	ot := r.e.tr.begin("paged-2048", id)
	s := sample{traced: true, model: r.model}
	s.start = time.Now()
	root := ot.open("op", "bench", -1)
	stats, spans, err := r.pagedSolve(ot, root, rm)
	ot.close(root)
	s.end = time.Now()
	s.measured = s.seconds()
	if err != nil {
		s.err = err
		return s
	}
	s.relax = stats.relax
	bound := cachesim.IOLowerBound(r.src.Len(), 4, r.budget)
	ps := stats.pager
	s.layer = map[string]float64{
		"pager.disk_bytes_per_op":     float64(ps.DiskBytes()),
		"pager.io_bound_bytes":        float64(bound),
		"pager.io_bound_ratio":        float64(ps.DiskBytes()) / float64(bound),
		"pager.fetched_blocks_per_op": float64(ps.FetchedBlocks),
		"pager.spilled_blocks_per_op": float64(ps.SpilledBlocks),
		"pager.pristine_reads_per_op": float64(ps.PristineReads),
		"pager.commits_per_op":        float64(ps.Commits),
		"pager.resident_peak_frames":  float64(ps.ResidentPeak),
		"pager.faulted_pages":         float64(ps.FaultedPages),
	}
	for name, sid := range spans {
		s.layer[name] = spanSeconds(ot, sid)
	}
	s.self = ot.finish()
	r.e.flip(id, rm)
	s.ok = sameTable(rm, r.ref)
	return s
}

type pagedStats struct {
	relax int64
	pager pager.Stats
}

// pagedSolve is the body of replayPaged; spans maps metric names to span ids.
func (r *solveRun) pagedSolve(ot *opTrace, root int, rm *tri.RowMajor[float32]) (pagedStats, map[string]int, error) {
	var (
		st  pagedStats
		tt  *tri.Tiled[float32]
		p   *pager.Pager[float32]
		ks  kernel.Stats
		err error
	)
	ot.call("tri.ToTiled", "tri", root, func() { tt = tri.ToTiled(rm, r.tile) })
	frameBytes := int64(r.tile)*int64(r.tile)*4 + 4
	frames := max(int(r.budget/frameBytes), r.e.procs*3+2)
	dir, err := os.MkdirTemp("", "cellnpdp-spill-")
	if err != nil {
		return st, nil, err
	}
	defer os.RemoveAll(dir)
	spans := map[string]int{}
	spans["pager.create_s"] = ot.call("pager.Create", "pager", root, func() {
		p, err = pager.Create(filepath.Join(dir, "solve.npsp"), tt, pager.Options{Frames: frames})
	})
	if err != nil {
		return st, nil, err
	}
	defer p.Close()
	spans["pager.solve_s"] = ot.call("npdp.SolvePagedCtx", "npdp", root, func() {
		ks, err = npdp.SolvePagedCtx(context.Background(), p, npdp.PagedOptions{Workers: r.e.procs})
	})
	if err != nil {
		return st, nil, err
	}
	var out *tri.Tiled[float32]
	ot.call("tri.NewTiled", "tri", root, func() { out = tri.NewTiled[float32](rm.Len(), r.tile) })
	spans["pager.materialize_s"] = ot.call("pager.Materialize", "pager", root, func() { err = p.Materialize(out) })
	if err != nil {
		return st, nil, err
	}
	st.relax, st.pager = ks.Relaxations(), p.Stats()
	spans["pager.close_s"] = ot.call("pager.Close", "pager", root, func() { err = p.Close() })
	if err != nil {
		return st, nil, err
	}
	ot.call("tri.Copy", "tri", root, func() { tri.Copy[float32](rm, out) })
	return st, spans, nil
}

// clusterRun is cluster-2048: cluster.Coordinate with two shards and
// two cluster.RunWorker goroutines over loopback TCP, on a fresh copy
// of the tiled instance made outside the timer.
type clusterRun struct {
	e     *env
	tiled *tri.Tiled[float32]
	ref   *tri.RowMajor[float32]
	relax int64 // relaxations of one solve, from the kernels' closed forms
	model float64
}

func setupCluster(e *env) (runner, error) {
	n := e.cfg.n()
	tile, err := npdp.DefaultTile(blockBytes, npdp.Single)
	if err != nil {
		return nil, err
	}
	est, err := cellnpdp.EstimateSolve[float32](n, cellnpdp.Options{Engine: cellnpdp.Parallel, Workers: clusterWorkers})
	if err != nil {
		return nil, err
	}
	r := &clusterRun{e: e, tiled: tri.ToTiled(gen.Chain[float32](n, e.cfg.seed), tile), ref: e.refs[n], model: est.PredictedSeconds}
	m := r.tiled.Blocks()
	for bi := 0; bi < m; bi++ {
		for bj := bi; bj < m; bj++ {
			r.relax += kernel.StatsMemoryBlock(tile, bi, bj).Relaxations()
		}
	}
	return r, warmUp(r)
}

func (r *clusterRun) callers() int { return 1 }
func (r *clusterRun) close()       {}

func (r *clusterRun) op(id int, traced bool) sample {
	s := sample{traced: traced, model: r.model}
	work := r.tiled.Clone()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.err = err
		return s
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	werrs := make([]error, clusterWorkers)
	for w := range werrs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			werrs[w] = cluster.RunWorker(ctx, ln.Addr().String(), cluster.WorkerOptions{Name: fmt.Sprintf("w%d", w)})
		}(w)
	}
	var st cluster.Stats
	before := totalAlloc()
	s.start = time.Now()
	err = cluster.Coordinate(ctx, ln, work, cluster.Options{Shards: clusterWorkers, Stats: &st})
	s.end = time.Now()
	s.alloc = totalAlloc() - before
	s.measured = s.seconds()
	if err != nil {
		cancel()
	}
	wg.Wait()
	if err == nil {
		err = errors.Join(werrs...)
	}
	if err != nil {
		s.err = err
		return s
	}
	s.relax = r.relax
	if traced {
		ot := r.e.tr.begin("cluster-2048", id)
		ot.add("cluster.Coordinate", "cluster", -1, 0, s.start, s.end)
		s.self = ot.finish()
		s.layer = map[string]float64{
			"cluster.coordinate_s":           s.seconds(),
			"cluster.bytes_streamed_per_op":  float64(st.BytesStreamed),
			"cluster.blocks_streamed_per_op": float64(st.BlocksStreamed),
			"cluster.wire_over_table":        float64(st.BytesStreamed) / float64(4*len(work.Cells())),
			"cluster.dispatch_efficiency":    float64(st.Accepted) / float64(st.Dispatched),
			"cluster.stale_results":          float64(st.StaleResults),
			"cluster.worker_deaths":          float64(st.WorkerDeaths),
		}
	}
	r.e.flip(id, work)
	s.ok = sameTable(work, r.ref)
	return s
}

// instKey names one serve-mix instance.
type instKey struct {
	n      int
	double bool
	seed   int64
}

type mixRequest struct {
	req serve.SolveRequest
	key instKey
}

// serveRef is one instance's oracle: the digest and objective a correct
// response carries, plus the direct timings of the serve layer's
// instance building and integrity checks on that instance.
type serveRef struct {
	crc   string
	cost  float64
	probe func() (map[string]float64, error)
}

// mixBags is how many shuffled bags of mixBag requests the request
// sequence holds; the clients cycle through it.
const (
	mixBags = 512
	mixBag  = 32
)

// prepareMix generates serve-mix's request sequence from the seed and
// solves every distinct instance serially. The sequence is shuffled bags
// of 32 requests: n drawn 4:3:1 from {256, 512, 1024} — the mix's 8
// slots each appearing four times — with one of each slot's four in
// double precision, and every request on one of 4 instance seeds per
// (n, precision). A double-precision n=1024 solve costs about ten of
// any other, so fixing each bag's contents, rather than drawing every
// request independently, keeps a window's cost from riding on how many
// of them it happened to draw. The warm-up sends one request of each
// (n, precision) shape, so that no shape's first use lands in the window.
func prepareMix(e *env) error {
	if e.mix != nil {
		return nil
	}
	sizes := []int{256, 256, 256, 256, 512, 512, 512, 1024}
	if e.cfg.short {
		sizes = []int{64, 64, 64, 64, 128, 128, 128, 256}
	}
	e.mixOK = make(map[instKey]*serveRef)
	request := func(k instKey) mixRequest {
		e.mixOK[k] = nil
		prec := "single"
		if k.double {
			prec = "double"
		}
		return mixRequest{serve.SolveRequest{N: k.n, Precision: prec, Seed: k.seed}, k}
	}
	for _, n := range []int{sizes[0], sizes[4], sizes[7]} {
		for _, double := range []bool{false, true} {
			e.warm = append(e.warm, request(instKey{n: n, double: double, seed: e.cfg.seed * 16}))
		}
	}
	var bag []instKey
	for _, n := range sizes {
		for p := 0; p < 4; p++ {
			bag = append(bag, instKey{n: n, double: p == 0})
		}
	}
	rng := rand.New(rand.NewSource(e.cfg.seed))
	for b := 0; b < mixBags; b++ {
		rng.Shuffle(len(bag), func(i, j int) { bag[i], bag[j] = bag[j], bag[i] })
		for _, k := range bag {
			k.seed = e.cfg.seed*16 + int64(rng.Intn(4))
			e.mix = append(e.mix, request(k))
		}
	}
	return solveMix(e)
}

// solveMix fills e.mixOK with every instance's oracle, solving on
// GOMAXPROCS goroutines.
func solveMix(e *env) error {
	keys := make(chan instKey, len(e.mixOK))
	for k := range e.mixOK {
		keys <- k
	}
	close(keys)
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	for w := 0; w < e.procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range keys {
				var ref *serveRef
				var err error
				if k.double {
					ref, err = serveOracle[float64](k.n, k.seed)
				} else {
					ref, err = serveOracle[float32](k.n, k.seed)
				}
				mu.Lock()
				e.mixOK[k] = ref
				firstErr = errors.Join(firstErr, err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

func serveOracle[E semiring.Elem](n int, seed int64) (*serveRef, error) {
	rm := gen.Chain[E](n, seed)
	npdp.SolveSerial(rm)
	t, err := publicCopy(rm)
	if err != nil {
		return nil, err
	}
	d, err := serve.DigestTable(t, 0)
	if err != nil {
		return nil, err
	}
	ref := &serveRef{crc: fmt.Sprintf("%08x", d.Whole), cost: float64(rm.At(0, n-1))}
	ref.probe = func() (map[string]float64, error) {
		out := make(map[string]float64, 4)
		var err error
		timed := func(name string, fn func()) {
			start := time.Now()
			fn()
			out[name] = time.Since(start).Seconds()
		}
		timed("serve.instance_s", func() { _, err = publicInstance(gen.Chain[E](n, seed)) })
		timed("serve.digest_s", func() { _, derr := serve.DigestTable(t, 0); err = errors.Join(err, derr) })
		timed("serve.residual_s", func() { _, rerr := serve.ResidualSpotCheck(t, 0, seed); err = errors.Join(err, rerr) })
		timed("serve.verify_s", func() { err = errors.Join(err, serve.VerifyDigest(t, d)) })
		return out, err
	}
	return ref, nil
}

// serveRun is serve-mix: up to two client goroutines (never more than
// nproc) posting the seeded mix to an in-process serve.New on a
// loopback listener.
type serveRun struct {
	e      *env
	srv    *serve.Server
	hs     *http.Server
	served chan error
	client *http.Client
	url    string
	nc     int
}

func setupServe(e *env) (runner, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	nc := min(2, runtime.NumCPU())
	r := &serveRun{
		e:      e,
		srv:    serve.New(serve.Config{}),
		served: make(chan error, 1),
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: nc, MaxIdleConnsPerHost: nc},
			Timeout:   time.Minute,
		},
		url: "http://" + ln.Addr().String() + "/solve",
		nc:  nc,
	}
	r.hs = &http.Server{Handler: r.srv.Handler()}
	go func() { r.served <- r.hs.Serve(ln) }()
	for _, mr := range e.warm {
		if err := warmed(r.send(0, mr, false)); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func (r *serveRun) callers() int { return r.nc }

func (r *serveRun) close() {
	r.srv.Drain()
	r.hs.Shutdown(context.Background())
	r.srv.Wait()
	<-r.served
	r.client.CloseIdleConnections()
}

func (r *serveRun) op(id int, traced bool) sample {
	return r.send(id, r.e.mix[id%len(r.e.mix)], traced)
}

// send posts one request and checks the response against its oracle.
func (r *serveRun) send(id int, mr mixRequest, traced bool) sample {
	s := sample{traced: traced}
	body, err := json.Marshal(mr.req)
	if err != nil {
		s.err = err
		return s
	}
	var out serve.SolveResponse
	s.start = time.Now()
	resp, err := r.client.Post(r.url, "application/json", bytes.NewReader(body))
	if err == nil {
		s.status = resp.StatusCode
		if resp.StatusCode == http.StatusOK {
			err = json.NewDecoder(resp.Body).Decode(&out)
		} else {
			_, err = io.Copy(io.Discard, resp.Body)
			err = errors.Join(fmt.Errorf("status %d", resp.StatusCode), err)
		}
		resp.Body.Close()
	}
	s.end = time.Now()
	if err != nil {
		s.err = err
		return s
	}
	s.relax, s.measured, s.model = out.Relaxations, out.WallSeconds, out.PredictedSeconds
	if r.e.flips(id) {
		out.Cost++
	}
	ref := r.e.mixOK[mr.key]
	s.ok = out.Integrity.CRCOK && out.Integrity.ResidualOK && out.Integrity.CRC32C == ref.crc && out.Cost == ref.cost
	if traced {
		// The server reports how long the request queued for admission
		// and how long the solve ran; they become children of the
		// client's span, laid end to end from its start.
		ot := r.e.tr.begin("serve-mix", id)
		root := ot.add("http.POST /solve", "serve", -1, 0, s.start, s.end)
		q := s.start.Add(time.Duration(out.QueueSeconds * float64(time.Second)))
		ot.add("serve.queue", "serve", root, 0, s.start, q)
		ot.add("cellnpdp.SolveCtx", "cellnpdp", root, 0, q, q.Add(time.Duration(out.WallSeconds*float64(time.Second))))
		s.self = ot.finish()
		s.layer = map[string]float64{
			"serve.queue_p50_s":    out.QueueSeconds,
			"serve.solve_p50_s":    out.WallSeconds,
			"serve.overhead_p50_s": s.seconds() - out.QueueSeconds - out.WallSeconds,
		}
	}
	return s
}

// afterTrace times serve's instance building and integrity checks
// directly on the instances of the first requests the window sent, and
// returns their means per request. The scheduler runs inside the server,
// out of the benchmark's reach, so serve-mix's npdp, sched and tri
// numbers come from replaying one bag of its requests — the mix's
// proportions — through the Parallel path, one at a time.
func (r *serveRun) afterTrace(ops int) (map[string]float64, error) {
	sum := map[string]float64{}
	count := min(ops, 64)
	for i := 1; i <= count; i++ {
		t, err := r.e.mixOK[r.e.mix[i%len(r.e.mix)].key].probe()
		if err != nil {
			return nil, err
		}
		for k, v := range t {
			sum[k] += v
		}
	}
	for k := range sum {
		sum[k] /= float64(count)
	}
	replays := map[string][]float64{}
	for i, mr := range r.e.mix[:mixBag] {
		var s sample
		if mr.key.double {
			s = replayRequest[float64](r.e, i, mr.key)
		} else {
			s = replayRequest[float32](r.e, i, mr.key)
		}
		if s.err != nil {
			return nil, fmt.Errorf("replaying request %d: %w", i, s.err)
		}
		if !s.ok {
			return nil, fmt.Errorf("replaying request %d: output differs from the serial oracle", i)
		}
		for k, v := range s.layer {
			replays[k] = append(replays[k], v)
		}
	}
	for k, vs := range replays {
		sum[k] = median(vs)
	}
	return sum, nil
}

// replayRequest replays one serve-mix request's solve through the
// Parallel path and checks the table's digest against the oracle's.
func replayRequest[E semiring.Elem](e *env, id int, k instKey) sample {
	p := npdp.Single
	if k.double {
		p = npdp.Double
	}
	tile, err := npdp.DefaultTile(blockBytes, p)
	if err != nil {
		return sample{err: err}
	}
	s, rm := replayParallel(e, "serve-mix/replay", id, gen.Chain[E](k.n, k.seed), tile)
	if s.err != nil {
		return s
	}
	t, err := publicCopy(rm)
	if err == nil {
		var d serve.Digest
		d, err = serve.DigestTable(t, 0)
		s.ok = err == nil && fmt.Sprintf("%08x", d.Whole) == e.mixOK[k].crc
	}
	s.err = err
	return s
}
