package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"

	"cellnpdp/internal/kernel"
)

// schema names the result-file format; -diff refuses any other.
const schema = "cellnpdp-bench/v3"

// metricDef is one metric the benchmark reports: its name and unit, as
// BENCHMARK.json lists them.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run. An op is one solve, or one HTTP request for serve-mix.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_s", "s"},
	{"latency_p90_s", "s"},
	{"relax_per_s", "relax/s"},
	{"peak_rss_bytes", "B"},
	{"alloc_bytes_per_op", "B"},
}

// perLayer are the metrics a traced run reports, grouped by the layer
// they measure. Every traced run reports all of them (see traceRun).
var perLayer = []metricDef{
	{"tri.to_tiled_s", "s"},
	{"tri.copy_back_s", "s"},
	{"kernel.stage1_ns_per_cell.f32", "ns/cell"},
	{"kernel.stage1_ns_per_cell.f64", "ns/cell"},
	{"kernel.stage2_ns_per_cell", "ns/cell"},
	{"kernel.stage1_model_ratio", "ratio"},
	{"npdp.task_busy_s", "s"},
	{"npdp.task_p50_us", "us"},
	{"npdp.task_max_us", "us"},
	{"sched.makespan_s", "s"},
	{"sched.idle_frac", "ratio"},
	{"sched.dispatch_wait_p50_us", "us"},
	{"sched.critical_path_s", "s"},
	{"sched.bound_ratio", "ratio"},
	{"pager.disk_bytes_per_op", "B"},
	{"pager.io_bound_bytes", "B"},
	{"pager.io_bound_ratio", "ratio"},
	{"pager.fetched_blocks_per_op", "count"},
	{"pager.spilled_blocks_per_op", "count"},
	{"pager.pristine_reads_per_op", "count"},
	{"pager.commits_per_op", "count"},
	{"pager.resident_peak_frames", "count"},
	{"pager.faulted_pages", "count"},
	{"pager.create_s", "s"},
	{"pager.solve_s", "s"},
	{"pager.materialize_s", "s"},
	{"pager.close_s", "s"},
	{"pager.overhead_s", "s"},
	{"cluster.bytes_streamed_per_op", "B"},
	{"cluster.blocks_streamed_per_op", "count"},
	{"cluster.wire_over_table", "ratio"},
	{"cluster.dispatch_efficiency", "ratio"},
	{"cluster.stale_results", "count"},
	{"cluster.worker_deaths", "count"},
	{"cluster.coordinate_s", "s"},
	{"cluster.overhead_s", "s"},
	{"cluster.crc_ns_per_byte", "ns/B"},
	{"serve.queue_p50_s", "s"},
	{"serve.solve_p50_s", "s"},
	{"serve.overhead_p50_s", "s"},
	{"serve.instance_s", "s"},
	{"serve.digest_s", "s"},
	{"serve.residual_s", "s"},
	{"serve.verify_s", "s"},
	{"serve.status_200", "count"},
	{"serve.status_429", "count"},
	{"serve.status_503", "count"},
	{"serve.status_500", "count"},
	{"perfmodel.predicted_s", "s"},
	{"perfmodel.measured_over_model", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.self_sum_frac", "ratio"},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// modelPair is a measured layer number beside its model, printed with
// both bases so the ratio can be read without the code.
type modelPair struct {
	Name     string  `json:"name"`
	Ratio    float64 `json:"ratio"`
	Measured float64 `json:"measured"`
	Model    float64 `json:"model"`
	Unit     string  `json:"unit"`
	Base     string  `json:"base"`
}

// hostFacts records the machine a run measured.
type hostFacts struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GOARCH      string `json:"goarch"`
	GoVersion   string `json:"go_version"`
	VectorISA   string `json:"vector_isa"`
	CPUModel    string `json:"cpu_model"`
	L2Bytes     int64  `json:"l2_bytes"`
	L3Bytes     int64  `json:"l3_bytes"`
	SpillFS     string `json:"spill_fs"`
	Calibration string `json:"calibration"`
	// Label is set when the run cannot show multi-core behaviour.
	Label string `json:"label,omitempty"`
}

// runRecord is one run of one workload, as -out stores it.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Short     bool                   `json:"short,omitempty"`
	Host      hostFacts              `json:"host"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	FirstErr  string                 `json:"first_error,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Models pairs layer numbers with their predictions (traced runs).
	Models []modelPair `json:"models,omitempty"`
	// SelfS is each traced workload's median per-op self time by layer.
	SelfS map[string]map[string]float64 `json:"self_s,omitempty"`
	// Modeled names the metrics that are projections past the real core
	// count rather than measurements.
	Modeled []string `json:"modeled,omitempty"`
}

// resultFile is a set of runs.
type resultFile struct {
	Schema string      `json:"schema"`
	Runs   []runRecord `json:"runs"`
}

// summary is the last line of standard output: exactly the keys the
// benchmark contract names.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes the human-readable metric lines, the model pairs, and
// the JSON summary line last.
func (r *runRecord) print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		label := ""
		if slices.Contains(r.Modeled, k) {
			label = " (modeled)"
		}
		fmt.Fprintf(w, "metric %-34s %14.6g %s%s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit, label)
	}
	for _, m := range r.Models {
		fmt.Fprintf(w, "model  %-34s %14.4g = %.6g %s measured / %.6g %s model (%s)\n",
			m.Name, m.Ratio, m.Measured, m.Unit, m.Model, m.Unit, m.Base)
	}
	for _, wl := range sortedKeys(r.SelfS) {
		fmt.Fprintf(w, "self   %-12s", wl)
		for _, layer := range sortedKeys(r.SelfS[wl]) {
			fmt.Fprintf(w, " %s=%.4gs", layer, r.SelfS[wl][layer])
		}
		fmt.Fprintln(w)
	}
	for k, v := range r.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", k, v.Value)
		}
	}
	line, err := json.Marshal(summary{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// readResults loads a result file.
func readResults(path string) (*resultFile, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(body, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rf.Schema, schema)
	}
	return &rf, nil
}

// appendResult adds rec to the result file at path, creating it if
// needed, so paired runs of two checkouts can alternate into two files.
func appendResult(path string, rec *runRecord) error {
	rf := &resultFile{Schema: schema}
	if _, err := os.Stat(path); err == nil {
		if rf, err = readResults(path); err != nil {
			return err
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	rf.Runs = append(rf.Runs, *rec)
	body, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(body, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// quantile is the linear-interpolation quantile of sorted xs, q in [0,1].
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// quartiles returns the first quartile, median and third quartile of xs
// by the exclusive method of Python's statistics.quantiles(n=4), the
// rule the benchmark's run-to-run spread is judged by.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, len(s)-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// hostInfo gathers the host facts. spillDir is where paged solves spill.
func hostInfo(spillDir, calibration string) hostFacts {
	h := hostFacts{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GOARCH:      runtime.GOARCH,
		GoVersion:   runtime.Version(),
		VectorISA:   kernel.VectorISA(),
		CPUModel:    cpuModel(),
		SpillFS:     fsType(spillDir),
		Calibration: calibration,
	}
	h.L2Bytes, h.L3Bytes = cacheSize(2), cacheSize(3)
	if h.GOMAXPROCS < h.NProc {
		h.Label = fmt.Sprintf("gomaxprocs %d < nproc %d: not a multi-core measurement", h.GOMAXPROCS, h.NProc)
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSize reads cpu0's unified or data cache of the given level from
// /sys; 0 when unknown.
func cacheSize(level int) int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lv, err := os.ReadFile(filepath.Join(d, "level"))
		if err != nil || strings.TrimSpace(string(lv)) != strconv.Itoa(level) {
			continue
		}
		typ, _ := os.ReadFile(filepath.Join(d, "type"))
		if strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		sz, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(sz))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v * mult
		}
	}
	return 0
}

// fsType names the filesystem holding dir: the type of the longest
// mount point in /proc/self/mountinfo that contains it.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, bestLen := "unknown", -1
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// Fields: id parent major:minor root mountpoint opts... - fstype source opts
		pre, post, ok := strings.Cut(sc.Text(), " - ")
		fields, tail := strings.Fields(pre), strings.Fields(post)
		if !ok || len(fields) < 5 || len(tail) < 1 {
			continue
		}
		mp := fields[4]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > bestLen {
			best, bestLen = tail[0], len(mp)
		}
	}
	return best
}

// peakRSS is this process's VmHWM in bytes.
func peakRSS() (int64, error) {
	body, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
