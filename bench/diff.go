package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchFile is the part of BENCHMARK.json the benchmark reads.
type benchFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchFile(path string) (*benchFile, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(body, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// comparison is one metric × workload verdict.
type comparison struct {
	workload, metric string
	old, new         [3]float64 // first quartile, median, third quartile
	wins, pairs      int
	verdict          string
}

// compare judges one metric over paired runs (old[i] against new[i]).
// A gain counts only when the change wins at least nine tenths of the
// pairs and the medians differ by more than the parent's quartile
// spread. A loss beyond the bound is a regression unless the parent's
// own spread is wider than the bound, in which case it is unresolved —
// except that a change whose every run reads worse (or better) than
// every parent run is judged anyway.
func compare(old, new []float64, bound float64, lowerBetter bool) comparison {
	var c comparison
	c.old[0], c.old[1], c.old[2] = quartiles(old)
	c.new[0], c.new[1], c.new[2] = quartiles(new)
	better := func(a, b float64) bool {
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	c.pairs = min(len(old), len(new))
	for i := 0; i < c.pairs; i++ {
		if better(new[i], old[i]) {
			c.wins++
		}
	}
	everyRun := func(xs, ys []float64) bool { // every x beats every y
		for _, x := range xs {
			for _, y := range ys {
				if !better(x, y) {
					return false
				}
			}
		}
		return len(xs) > 0 && len(ys) > 0
	}
	om, nm := c.old[1], c.new[1]
	spread, worse := math.Inf(1), math.Inf(1)
	if om != 0 {
		spread = (c.old[2] - c.old[0]) / math.Abs(om)
		worse = (nm - om) / math.Abs(om)
		if !lowerBetter {
			worse = -worse
		}
	}
	switch {
	case c.pairs > 0 && float64(c.wins) >= 0.9*float64(c.pairs) && better(nm, om) && math.Abs(nm-om) > c.old[2]-c.old[0]:
		c.verdict = "improved"
	case worse > bound && (spread <= bound || everyRun(old, new)):
		c.verdict = "regressed"
	case spread > bound && !everyRun(new, old):
		c.verdict = "unresolved"
	default:
		c.verdict = "unchanged"
	}
	return c
}

// diffResults compares two result files metric by metric and workload
// by workload, with the bounds in BENCHMARK.json, and reports whether
// anything regressed. Only untraced runs are compared. failed_frac, the
// failed share of attempted ops, regresses on any increase.
func diffResults(oldPath, newPath, benchPath string, w io.Writer) (bool, error) {
	bf, err := readBenchFile(benchPath)
	if err != nil {
		return false, err
	}
	oldRF, err := readResults(oldPath)
	if err != nil {
		return false, err
	}
	newRF, err := readResults(newPath)
	if err != nil {
		return false, err
	}
	byWorkload := func(rf *resultFile) map[string][]runRecord {
		out := map[string][]runRecord{}
		for _, r := range rf.Runs {
			if !r.Trace {
				out[r.Workload] = append(out[r.Workload], r)
			}
		}
		return out
	}
	oldRuns, newRuns := byWorkload(oldRF), byWorkload(newRF)
	fmt.Fprintf(w, "%-13s %-19s %-38s %-38s %8s %6s  %s\n", "workload", "metric",
		"old median [q1, q3]", "new median [q1, q3]", "change", "wins", "verdict")
	regressed := false
	for _, wl := range bf.Workloads {
		o, n := oldRuns[wl.Name], newRuns[wl.Name]
		if len(o) == 0 || len(n) == 0 {
			fmt.Fprintf(w, "%-13s not in both files: %d old runs, %d new runs\n", wl.Name, len(o), len(n))
			continue
		}
		for _, m := range bf.EndToEnd {
			values := func(runs []runRecord) []float64 {
				var out []float64
				for _, r := range runs {
					if v, ok := r.Metrics[m.Name]; ok {
						out = append(out, v.Value)
					}
				}
				return out
			}
			c := compare(values(o), values(n), m.Bound, m.Better == "lower")
			c.workload, c.metric = wl.Name, m.Name
			regressed = regressed || c.verdict == "regressed"
			c.print(w)
		}
		frac := func(runs []runRecord) float64 {
			failed, attempted := 0, 0
			for _, r := range runs {
				failed, attempted = failed+r.Failed, attempted+r.Attempted
			}
			return float64(failed) / float64(max(attempted, 1))
		}
		c := comparison{workload: wl.Name, metric: "failed_frac", verdict: "unchanged", pairs: min(len(o), len(n))}
		c.old[1], c.new[1] = frac(o), frac(n)
		if c.new[1] > c.old[1] {
			c.verdict, regressed = "regressed", true
		}
		c.print(w)
	}
	return regressed, nil
}

func (c comparison) print(w io.Writer) {
	q := func(x [3]float64) string { return fmt.Sprintf("%.5g [%.5g, %.5g]", x[1], x[0], x[2]) }
	change := "n/a"
	if c.old[1] != 0 {
		change = fmt.Sprintf("%+.1f%%", 100*(c.new[1]-c.old[1])/math.Abs(c.old[1]))
	}
	fmt.Fprintf(w, "%-13s %-19s %-38s %-38s %8s %3d/%-2d  %s\n", c.workload, c.metric, q(c.old), q(c.new), change, c.wins, c.pairs, c.verdict)
}
