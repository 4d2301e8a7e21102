package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cellnpdp/internal/sched"
)

// The traced run records spans from the benchmark's own code, around
// the calls it makes into each layer's public functions; nothing inside
// the program is instrumented. Spans are kept in memory and written
// when the run ends.

// span is one timed call. Start and End are microseconds since the
// tracer's epoch; Parent is the index of the enclosing span within the
// same op, or -1 for the op's root.
type span struct {
	Workload string  `json:"workload"`
	Op       int     `json:"op"`
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	Layer    string  `json:"layer"`
	Worker   int     `json:"worker"`
	Start    float64 `json:"start_us"`
	End      float64 `json:"end_us"`
}

// tracer collects the spans of every traced op of a run.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.epoch).Nanoseconds()) / 1e3 }

// opTrace gathers one op's spans on the goroutine that runs the op;
// finish hands them to the tracer.
type opTrace struct {
	t        *tracer
	workload string
	op       int
	spans    []span
}

func (t *tracer) begin(workload string, op int) *opTrace {
	return &opTrace{t: t, workload: workload, op: op}
}

// add records a finished call and returns its span index.
func (o *opTrace) add(name, layer string, parent, worker int, start, end time.Time) int {
	o.spans = append(o.spans, span{
		Workload: o.workload, Op: o.op, ID: len(o.spans), Parent: parent,
		Name: name, Layer: layer, Worker: worker,
		Start: o.t.us(start), End: o.t.us(end),
	})
	return len(o.spans) - 1
}

// call times fn as a span and returns its index.
func (o *opTrace) call(name, layer string, parent int, fn func()) int {
	start := time.Now()
	fn()
	return o.add(name, layer, parent, 0, start, time.Now())
}

// open starts a span whose children are recorded before close sets its end.
func (o *opTrace) open(name, layer string, parent int) int {
	now := time.Now()
	return o.add(name, layer, parent, 0, now, now)
}

func (o *opTrace) close(id int) { o.spans[id].End = o.t.us(time.Now()) }

// finish stores the op's spans and returns its self time per layer.
func (o *opTrace) finish() map[string]float64 {
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.spans...)
	o.t.mu.Unlock()
	return layerSelf(o.spans)
}

// write stores every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	body, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}

type interval struct{ lo, hi float64 }

// union merges overlapping intervals into a sorted disjoint list.
func union(iv []interval) []interval {
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var out []interval
	for _, x := range s {
		if n := len(out); n > 0 && x.lo <= out[n-1].hi {
			out[n-1].hi = max(out[n-1].hi, x.hi)
			continue
		}
		out = append(out, x)
	}
	return out
}

// subtract returns x minus the sorted disjoint cover.
func subtract(x interval, cover []interval) []interval {
	var out []interval
	lo := x.lo
	for _, c := range cover {
		if c.hi <= lo || c.lo >= x.hi {
			continue
		}
		if c.lo > lo {
			out = append(out, interval{lo, c.lo})
		}
		lo = max(lo, c.hi)
	}
	if lo < x.hi {
		out = append(out, interval{lo, x.hi})
	}
	return out
}

// layerSelf attributes an op's wall time to layers. A span's self time
// is its interval minus the union of its children's; a layer's is the
// union of its spans' self intervals, so tasks running at once on two
// workers count once. Summed over layers it is the root span's length.
func layerSelf(spans []span) map[string]float64 {
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	byLayer := make(map[string][]interval)
	for _, s := range spans {
		self := subtract(interval{s.Start, s.End}, union(children[s.ID]))
		byLayer[s.Layer] = append(byLayer[s.Layer], self...)
	}
	out := make(map[string]float64, len(byLayer))
	for layer, iv := range byLayer {
		total := 0.0
		for _, x := range union(iv) {
			total += x.hi - x.lo
		}
		out[layer] = total / 1e6
	}
	return out
}

// poolTimes is what the traced pool run records per task, indexed by
// task ID: each slot is written once by the worker that ran the task
// and read after RunPoolCtx returns.
type poolTimes struct {
	start, end []time.Time
	worker     []int
	relax      []int64
}

func newPoolTimes(tasks int) *poolTimes {
	return &poolTimes{
		start: make([]time.Time, tasks), end: make([]time.Time, tasks),
		worker: make([]int, tasks), relax: make([]int64, tasks),
	}
}

// schedLayer derives the npdp and sched numbers of one pool run:
// per-task busy time and spread, how long ready tasks waited for a
// worker, the critical path through the graph at the measured task
// times, and how far the makespan sits from the max(critical path,
// work/P) lower bound.
func schedLayer(g *sched.Graph, pt *poolTimes, poolStart, poolEnd time.Time, workers int) (map[string]float64, error) {
	n := len(g.Tasks)
	dur := make([]float64, n)
	waits := make([]float64, n)
	busy := 0.0
	for id, task := range g.Tasks {
		dur[id] = pt.end[id].Sub(pt.start[id]).Seconds()
		busy += dur[id]
		ready := poolStart
		for _, d := range task.Deps {
			if pt.end[d].After(ready) {
				ready = pt.end[d]
			}
		}
		waits[id] = pt.start[id].Sub(ready).Seconds()
	}
	// A discrete-event run with a worker per task never queues, so its
	// makespan is the longest dependence chain at the measured times.
	crit, err := sched.RunDES(g, n, 0, func(_ int, t sched.Task, start float64) (float64, error) {
		return start + dur[t.ID], nil
	})
	if err != nil {
		return nil, err
	}
	makespan := poolEnd.Sub(poolStart).Seconds()
	sorted := append([]float64(nil), dur...)
	sort.Float64s(sorted)
	sort.Float64s(waits)
	return map[string]float64{
		"npdp.task_busy_s":           busy,
		"npdp.task_p50_us":           quantile(sorted, 0.5) * 1e6,
		"npdp.task_max_us":           sorted[n-1] * 1e6,
		"sched.makespan_s":           makespan,
		"sched.idle_frac":            1 - busy/(float64(workers)*makespan),
		"sched.dispatch_wait_p50_us": quantile(waits, 0.5) * 1e6,
		"sched.critical_path_s":      crit.Makespan,
		"sched.bound_ratio":          makespan / max(crit.Makespan, busy/float64(workers)),
	}, nil
}
