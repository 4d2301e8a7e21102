// Package harness regenerates every table and figure of the paper's
// evaluation (Section VI). Each experiment is one function returning a
// stats.Table whose rows mirror what the paper reports; RunAll prints
// them all. Two scales are supported: the default scaled mode measures
// real executions at sizes that complete in seconds, and full mode
// additionally models the paper's own sizes (4096–16384) through the
// calibrated simulators, where functional execution would take hours.
package harness

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"cellnpdp/internal/cellsim"
	"cellnpdp/internal/npdp"
	"cellnpdp/internal/pipeline"
	"cellnpdp/internal/stats"
	"cellnpdp/internal/tri"
	"cellnpdp/internal/workload"
)

// Config selects experiment scale and output.
type Config struct {
	// Full additionally runs the paper-size modeled experiments.
	Full bool
	// Out receives the rendered tables; defaults to os.Stdout.
	Out io.Writer
	// Workers is the CPU worker count for measured runs; defaults to
	// min(GOMAXPROCS, 8), the paper's core count.
	Workers int
	// Seed drives all workload generation.
	Seed int64
	// Sizes overrides the measured problem sizes (tests use tiny ones).
	Sizes []int
}

func (c Config) out() io.Writer {
	if c.Out != nil {
		return c.Out
	}
	return os.Stdout
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	return w
}

// measuredSizes are the scaled problem sizes real executions run at.
func (c Config) measuredSizes() []int {
	if len(c.Sizes) > 0 {
		return c.Sizes
	}
	if c.Full {
		return []int{512, 1024, 2048, 4096}
	}
	return []int{512, 1024, 2048}
}

// paperSizes are Table II/III's problem sizes, used by modeled runs.
func paperSizes() []int { return []int{4096, 8192, 16384} }

// Modeled per-step kernel costs, computed once from the pipeline model.
var (
	cbCyclesSP = pipeline.CBStepCyclesSP()
	cbCyclesDP = pipeline.CBStepCyclesDP()
)

// cellOpts builds CellNPDP options for a precision and SPE count.
func cellOpts(prec npdp.Precision, workers int) npdp.CellOptions {
	cycles := cbCyclesSP
	if prec == npdp.Double {
		cycles = cbCyclesDP
	}
	return npdp.CellOptions{
		Workers:           workers,
		SchedSide:         1,
		UseSIMD:           true,
		DoubleBuffer:      true,
		CBStepCycles:      cycles,
		ScalarRelaxCycles: npdp.ScalarRelaxCyclesFor(prec),
	}
}

// paperTile returns the 32 KB memory-block tile for a precision.
func paperTile(prec npdp.Precision) int {
	t, err := npdp.DefaultTile(32*1024, prec)
	if err != nil {
		panic(err)
	}
	return t
}

// timeIt measures wall-clock seconds of f.
func timeIt(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// modelCell runs the timing-only CellNPDP model on a fresh QS20.
func modelCell(n int, prec npdp.Precision, opts npdp.CellOptions) (npdp.CellResult, error) {
	mach, err := cellsim.NewMachine(cellsim.QS20())
	if err != nil {
		return npdp.CellResult{}, err
	}
	return npdp.ModelCell(n, paperTile(prec), prec, mach, opts)
}

// chainF32 builds the standard instance at size n.
func (c Config) chainF32(n int) *tri.RowMajor[float32] {
	return workload.Chain[float32](n, c.Seed+int64(n))
}

func (c Config) chainF64(n int) *tri.RowMajor[float64] {
	return workload.Chain[float64](n, c.Seed+int64(n))
}

// Experiment pairs a name with its generator, for RunAll and the CLI.
type Experiment struct {
	Name string
	Desc string
	Run  func(Config) (*stats.Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "SIMD instruction mix of one computing-block step", Table1},
		{"table1-dp", "double-precision computing-block step characterization", Table1DP},
		{"table2", "QS20 Cell blade times, modeled at paper sizes", Table2},
		{"table2-verify", "functional vs modeled CellNPDP at measured sizes", Table2Verify},
		{"table3", "8-core CPU platform times, measured", Table3},
		{"fig9a", "DMA traffic on the Cell: original vs NDL", Fig9a},
		{"fig9b", "memory traffic on the CPU: original vs NDL", Fig9b},
		{"fig10a", "SP speedup breakdown on the Cell", Fig10a},
		{"fig10b", "SP speedup breakdown on the CPU", Fig10b},
		{"fig11a", "DP speedup breakdown on the Cell", Fig11a},
		{"fig11b", "DP speedup breakdown on the CPU", Fig11b},
		{"fig12a", "CellNPDP vs TanNPDP on the CPU, SP", Fig12a},
		{"fig12b", "CellNPDP vs TanNPDP on the CPU, DP", Fig12b},
		{"fig13", "memory-block size × SPE count sweep", Fig13},
		{"ablations", "design choices toggled in isolation", Ablations},
		{"resilience", "fault injection, retry overhead and kill+resume", Resilience},
		{"selfheal", "silent-corruption detection and poisoned-cone healing", SelfHeal},
		{"serve", "serving layer under overload: admission, shedding, integrity", ServeLoad},
		{"cluster", "sharded coordinator/worker solve: loopback scaling, kill recovery, cone healing", Cluster},
		{"failover", "coordinator HA: warm-standby takeover of a killed primary, epoch-fenced", Failover},
		{"outofcore", "block pager: resident-budget sweep vs the I/O lower bound, verified", OutOfCore},
		{"model", "Section V analytic model report", ModelReport},
		{"utilization", "processor utilization accounting", UtilizationReport},
	}
}

// RunAll executes every experiment and prints its table.
func RunAll(cfg Config) error { return runAll(cfg, All()) }

// runAll executes exps in order, printing each table; the first failure
// stops the run, named.
func runAll(cfg Config, exps []Experiment) error {
	for _, e := range exps {
		t, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("harness: %s: %w", e.Name, err)
		}
		if _, err := fmt.Fprintf(cfg.out(), "%s\n", t); err != nil {
			return err
		}
	}
	return nil
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range All() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}
