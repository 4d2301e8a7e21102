package main

import (
	"bytes"
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

// The smoke test runs every workload small (n=512, 0.5 s windows) and
// checks the benchmark's own contract: what it prints, that its oracle
// catches a wrong output, and that -diff tells a regression from noise.

func testConfig(t *testing.T) config {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", t.TempDir())
	// Op 2 of every window gets one output cell flipped: the oracle must
	// count exactly that op as failed and no other.
	return config{seed: 1, seconds: 0.5, short: true, root: root, flipOp: 2}
}

func testBenchFile(t *testing.T) *benchFile {
	t.Helper()
	bf, err := readBenchFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// checkPrinted asserts that the last line rec prints is the summary
// object with exactly the contract's keys and exactly the wanted
// metrics, each with its unit.
func checkPrinted(t *testing.T, rec *runRecord, want map[string]string) {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.print(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	last := []byte(lines[len(lines)-1])
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(last, &keys); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, last)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("summary lacks %q", k)
		}
	}
	if len(keys) != 4 {
		t.Errorf("summary has %d keys, want 4: %s", len(keys), last)
	}
	var sum summary
	if err := json.Unmarshal(last, &sum); err != nil {
		t.Fatal(err)
	}
	for name, unit := range want {
		if got, ok := sum.Metrics[name]; !ok || got.Unit != unit {
			t.Errorf("%s: metric %s printed as %+v (present %v), want unit %q", rec.Workload, name, got, ok, unit)
		}
	}
	if len(sum.Metrics) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json names %d", rec.Workload, len(sum.Metrics), len(want))
	}
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := testBenchFile(t)
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, program default %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
}

func TestWorkloadsPrintEveryMetricAndCatchFlippedCell(t *testing.T) {
	bf := testBenchFile(t)
	e2e := map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	cfg := testConfig(t)
	for _, w := range workloads {
		rec, err := runWorkload(cfg, w.name, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkPrinted(t, rec, e2e)
		if rec.Failed != 1 || rec.Correct || rec.Attempted < 2 {
			t.Errorf("%s: flipped op 2 gave failed=%d correct=%v attempted=%d, want exactly one failure",
				w.name, rec.Failed, rec.Correct, rec.Attempted)
		}
	}
}

func TestTracedRunPrintsEveryLayerMetric(t *testing.T) {
	bf := testBenchFile(t)
	layers := map[string]string{}
	for _, m := range bf.PerLayer {
		layers[m.Name] = m.Unit
	}
	cfg := testConfig(t)
	cfg.trace, cfg.flipOp = true, 0
	rec, err := runWorkload(cfg, "inmem-2048", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checkPrinted(t, rec, layers)
	if rec.Failed != 0 || !rec.Correct {
		t.Errorf("traced run: failed=%d correct=%v (%s)", rec.Failed, rec.Correct, rec.FirstErr)
	}
	for _, w := range workloads {
		if len(rec.SelfS[w.name]) == 0 {
			t.Errorf("no self times for %s", w.name)
		}
	}
}

// The traced replays of inmem-2048 and paged-2048 check their own
// outputs; a flipped cell must fail exactly the op it was flipped in.
func TestReplaysCatchFlippedCell(t *testing.T) {
	cfg := testConfig(t)
	cfg.flipOp = 7
	e := newEnv(cfg)
	e.tr = newTracer()
	for _, name := range []string{"inmem-2048", "paged-2048"} {
		w, _ := findWorkload(name)
		if err := w.prepare(e); err != nil {
			t.Fatal(err)
		}
		r, err := w.setup(e)
		if err != nil {
			t.Fatal(err)
		}
		if s := r.op(7, true); s.ok || s.err != nil || !s.traced {
			t.Errorf("%s: flipped replay ok=%v err=%v traced=%v, want a mismatch", name, s.ok, s.err, s.traced)
		}
		if s := r.op(8, true); !s.ok {
			t.Errorf("%s: replay failed: %v", name, s.err)
		}
		r.close()
	}
}

// synthetic builds a result file of ten runs per workload whose metrics
// sit near 1 with a small spread; scale multiplies one metric of one
// workload.
func synthetic(bf *benchFile, workload, metric string, scale float64) *resultFile {
	rf := &resultFile{Schema: schema}
	for i := 0; i < 10; i++ {
		for _, w := range bf.Workloads {
			rec := runRecord{Workload: w.Name, Seed: int64(i), Attempted: 50, Metrics: map[string]metricValue{}}
			for _, m := range bf.EndToEnd {
				v := 1 + 0.002*float64(i%5)
				if w.Name == workload && m.Name == metric {
					v *= scale
				}
				rec.Metrics[m.Name] = metricValue{v, m.Unit}
			}
			rf.Runs = append(rf.Runs, rec)
		}
	}
	return rf
}

func writeResults(t *testing.T, rf *resultFile) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "results.json")
	for i := range rf.Runs {
		if err := appendResult(path, &rf.Runs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func TestDiffFlagsRegressionAndPassesIdentical(t *testing.T) {
	bf := testBenchFile(t)
	// The synthetic regression sits 20 points past latency_p50_s's bound.
	scale := 1.2
	for _, m := range bf.EndToEnd {
		if m.Name == "latency_p50_s" {
			scale += m.Bound
		}
	}
	base := writeResults(t, synthetic(bf, "", "", 1))
	worse := writeResults(t, synthetic(bf, "inmem-2048", "latency_p50_s", scale))

	var out bytes.Buffer
	regressed, err := diffResults(base, worse, "../BENCHMARK.json", &out)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Errorf("a %.0f%% latency_p50_s regression passed:\n%s", 100*(scale-1), out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || f[0] == "workload" {
			continue
		}
		want := "unchanged"
		if f[0] == "inmem-2048" && f[1] == "latency_p50_s" {
			want = "regressed"
		}
		if got := f[len(f)-1]; got != want {
			t.Errorf("%s %s: verdict %s, want %s", f[0], f[1], got, want)
		}
	}

	out.Reset()
	if regressed, err := diffResults(base, base, "../BENCHMARK.json", &out); err != nil || regressed {
		t.Errorf("identical files: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scaled := func(xs []float64, k float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * k
		}
		return out
	}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0}
	for _, tc := range []struct {
		name     string
		old, new []float64
		lower    bool
		want     string
	}{
		{"same", steady, steady, true, "unchanged"},
		{"slower", steady, scaled(steady, 1.2), true, "regressed"},
		{"faster", steady, scaled(steady, 0.8), true, "improved"},
		{"higher is better and fell", steady, scaled(steady, 0.8), false, "regressed"},
		{"noise wider than the bound", noisy, scaled(noisy, 1.05), true, "unresolved"},
		{"every run worse despite noise", noisy, scaled(noisy, 2), true, "regressed"},
	} {
		if got := compare(tc.old, tc.new, 0.1, tc.lower).verdict; got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestLayerSelfCountsConcurrentChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Layer: "bench", Start: 0, End: 100},
		{ID: 1, Parent: 0, Layer: "sched", Start: 10, End: 90},
		{ID: 2, Parent: 1, Layer: "npdp", Start: 20, End: 60},
		{ID: 3, Parent: 1, Layer: "npdp", Start: 30, End: 80},
	}
	got := layerSelf(spans)
	want := map[string]float64{"bench": 20e-6, "sched": 20e-6, "npdp": 60e-6}
	for k, v := range want {
		if diff := got[k] - v; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("%s self %g, want %g", k, got[k], v)
		}
	}
}
