package harness

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"cellnpdp/internal/npdp"
	"cellnpdp/internal/stats"
)

// fastCfg keeps measured experiments tiny for tests.
func fastCfg() Config {
	return Config{Workers: 2, Seed: 1, Sizes: []int{96, 180}}
}

// Each experiment runs exactly once per test binary: tests that check
// different properties of the same table share it through run.
var (
	runMu   sync.Mutex
	runMemo = map[string]*stats.Table{}
)

// run returns the named experiment's table on fastCfg, computing it on
// first use, and checks that its title names what RunAll prints.
func run(t *testing.T, name, title string) *stats.Table {
	t.Helper()
	runMu.Lock()
	defer runMu.Unlock()
	tbl, ok := runMemo[name]
	if !ok {
		e, found := Lookup(name)
		if !found {
			t.Fatalf("experiment %q not registered", name)
		}
		var err error
		if tbl, err = e.Run(fastCfg()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runMemo[name] = tbl
	}
	if !strings.Contains(tbl.String(), title) {
		t.Fatalf("%s: title lacks %q:\n%s", name, title, tbl)
	}
	return tbl
}

func TestTable1(t *testing.T) {
	out := run(t, "table1", "Table I").String()
	for _, want := range []string{"Load", "12", "Shuffle", "16", "Store", "54 cycles"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2ShapeHolds(t *testing.T) {
	tbl := run(t, "table2", "Table II")
	if len(tbl.Rows) != 6 {
		t.Fatalf("Table2 has %d rows, want 6", len(tbl.Rows))
	}
	out := tbl.String()
	for _, want := range []string{"original, one PPE", "original, one SPE", "CellNPDP, 16 SPEs", "single", "double"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 missing %q", want)
		}
	}
}

func TestTable2Verify(t *testing.T) {
	tbl := run(t, "table2-verify", "Table II cross-check")
	if strings.Contains(tbl.String(), "false") {
		t.Errorf("cross-check reported a mismatch:\n%s", tbl)
	}
}

func TestFig9a(t *testing.T) {
	tbl := run(t, "fig9a", "Figure 9(a)")
	if len(tbl.Rows) != 3 {
		t.Fatalf("Fig9a rows = %d", len(tbl.Rows))
	}
}

func TestFig10aShape(t *testing.T) {
	tbl := run(t, "fig10a", "Figure 10(a)")
	if len(tbl.Rows) != 3 {
		t.Fatalf("Fig10a rows = %d", len(tbl.Rows))
	}
}

func TestFig11aShape(t *testing.T) {
	run(t, "fig11a", "Figure 11(a)")
}

// measuredRows checks a CPU-measured experiment has rowsPerSize rows per
// measured size.
func measuredRows(t *testing.T, name, title string, rowsPerSize int) {
	t.Helper()
	tbl := run(t, name, title)
	if want := rowsPerSize * len(fastCfg().measuredSizes()); len(tbl.Rows) != want {
		t.Fatalf("%s has %d rows, want %d:\n%s", name, len(tbl.Rows), want, tbl)
	}
}

func TestTable3Shape(t *testing.T) { measuredRows(t, "table3", "Table III", 2) }
func TestFig9bShape(t *testing.T) {
	// The trace-driven simulation pins its own sizes, n = 256 and 512.
	if tbl := run(t, "fig9b", "Figure 9(b)"); len(tbl.Rows) != 2 {
		t.Fatalf("fig9b has %d rows, want 2:\n%s", len(tbl.Rows), tbl)
	}
}
func TestFig10bShape(t *testing.T) { measuredRows(t, "fig10b", "Figure 10(b)", 1) }
func TestFig11bShape(t *testing.T) { measuredRows(t, "fig11b", "Figure 11(b)", 1) }
func TestFig12aShape(t *testing.T) { measuredRows(t, "fig12a", "Figure 12(a)", 1) }
func TestFig12bShape(t *testing.T) { measuredRows(t, "fig12b", "Figure 12(b)", 1) }

func TestFig13Shape(t *testing.T) {
	tbl := run(t, "fig13", "Figure 13")
	if len(tbl.Rows) != 4 {
		t.Fatalf("Fig13 rows = %d, want 4 block sizes", len(tbl.Rows))
	}
	// The 32 KB / 1 SPE cell is the baseline: exactly 1.0x.
	if tbl.Rows[0][1] != "1.0x" {
		t.Errorf("baseline cell = %q, want 1.0x", tbl.Rows[0][1])
	}
}

func TestModelReport(t *testing.T) {
	tbl := run(t, "model", "Section V")
	if !strings.Contains(tbl.String(), "compute") {
		t.Errorf("QS20 SP should be compute-bound:\n%s", tbl)
	}
}

func TestUtilizationReport(t *testing.T) {
	run(t, "utilization", "utilization")
}

func TestLookupAndAll(t *testing.T) {
	if len(All()) < 14 {
		t.Errorf("only %d experiments registered", len(All()))
	}
	if _, ok := Lookup("table1"); !ok {
		t.Error("table1 not found")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("bogus name found")
	}
	names := map[string]bool{}
	for _, e := range All() {
		if names[e.Name] {
			t.Errorf("duplicate experiment %q", e.Name)
		}
		names[e.Name] = true
		if e.Desc == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.Name)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.workers() < 1 || c.workers() > 8 {
		t.Errorf("default workers = %d", c.workers())
	}
	if c.out() == nil {
		t.Error("default out nil")
	}
	if len(c.measuredSizes()) == 0 {
		t.Error("no measured sizes")
	}
	full := Config{Full: true}
	if len(full.measuredSizes()) <= len(c.measuredSizes()) {
		t.Error("full mode should add sizes")
	}
}

func TestPaperTile(t *testing.T) {
	if paperTile(npdp.Single) != 88 || paperTile(npdp.Double) != 64 {
		t.Errorf("paper tiles = %d/%d, want 88/64", paperTile(npdp.Single), paperTile(npdp.Double))
	}
}

func TestFig10aBreakdownDirections(t *testing.T) {
	// Every stage of the Cell breakdown must be a genuine speedup (>1x).
	tbl := run(t, "fig10a", "Figure 10(a)")
	for _, row := range tbl.Rows {
		for col := 1; col < len(row); col++ {
			if strings.HasPrefix(row[col], "0.") {
				t.Errorf("stage %d at n=%s is a slowdown: %s", col, row[0], row[col])
			}
		}
	}
}

// TestRunAllSmoke exercises RunAll's loop — every table printed in
// order, the first failure named and stopping the run — on stand-in
// experiments; each real experiment runs exactly once, in its own test.
func TestRunAllSmoke(t *testing.T) {
	var buf bytes.Buffer
	cfg := fastCfg()
	cfg.Out = &buf
	table := func(title string) Experiment {
		return Experiment{Name: title, Run: func(Config) (*stats.Table, error) { return stats.NewTable(title, "x"), nil }}
	}
	boom := Experiment{Name: "boom", Run: func(Config) (*stats.Table, error) { return nil, errors.New("kaput") }}
	if err := runAll(cfg, []Experiment{table("first"), table("second")}); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "first") || strings.Index(out, "second") < strings.Index(out, "first") {
		t.Fatalf("RunAll output out of order or incomplete:\n%s", out)
	}
	buf.Reset()
	err := runAll(cfg, []Experiment{table("first"), boom, table("never")})
	if err == nil || err.Error() != "harness: boom: kaput" || strings.Contains(buf.String(), "never") {
		t.Fatalf("failing experiment reported as %v after output %q", err, buf.String())
	}
}

func TestTable1DP(t *testing.T) {
	out := run(t, "table1-dp", "Table I (double-precision").String()
	for _, want := range []string{"24", "32", "13", "true", "144"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1DP missing %q:\n%s", want, out)
		}
	}
}

func TestAblationsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("measured ablations in -short mode")
	}
	tbl, err := Ablations(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 8 {
		t.Fatalf("ablations rows = %d, want 8 (7 seed + panel kernel)", len(tbl.Rows))
	}
	// The modeled rows must show genuine benefits.
	for _, row := range tbl.Rows {
		if strings.Contains(row[0], "software pipelining") && !strings.HasPrefix(row[3], "3.9") {
			t.Errorf("software pipelining effect = %s, want 3.9x", row[3])
		}
	}
}

// TestServeLoadExperiment is the serving-layer acceptance scenario: the
// experiment itself asserts that 16 concurrent requests against a
// two-solve budget produce only 200/429/503, that every 200 passed the
// CRC + residual integrity checks with a consistent checksum, and that
// no goroutine leaked; the test only needs it to pass and report shape.
func TestServeLoadExperiment(t *testing.T) {
	tbl, err := ServeLoad(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("ServeLoad rows = %d, want 200/429/503/goroutines", len(tbl.Rows))
	}
	for i, want := range []string{"200", "429", "503", "goroutines"} {
		if tbl.Rows[i][0] != want {
			t.Fatalf("row %d = %q, want %q", i, tbl.Rows[i][0], want)
		}
	}
}

// TestSelfHealExperiment runs the corruption-recovery characterization:
// the experiment self-verifies every healed row bit-identical against the
// serial reference and asserts the single-corruption cone is a strict
// subset of the task graph, so the test only needs shape and outcomes.
func TestSelfHealExperiment(t *testing.T) {
	tbl, err := SelfHeal(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("SelfHeal rows = %d, want clean + single + 5%% + detect-only", len(tbl.Rows))
	}
	single := tbl.Rows[1]
	if single[1] != "1" || single[2] != "1" || !strings.Contains(single[3], "/") {
		t.Fatalf("single-corruption row malformed: %v", single)
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[len(last)-1] != "error surfaced" {
		t.Fatalf("detect-only row must surface an error: %v", last)
	}
}

// TestResilienceExperiment runs the fault-tolerance characterization:
// every row self-verifies against the serial reference, so the test only
// needs the table shape and the resume row's restored-task note.
func TestResilienceExperiment(t *testing.T) {
	tbl, err := Resilience(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("Resilience rows = %d, want clean + 3 rates + resume", len(tbl.Rows))
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[0] != "kill+resume" || !strings.Contains(last[len(last)-1], "restored") {
		t.Fatalf("resume row malformed: %v", last)
	}
}

func TestClusterExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback cluster runs in -short mode")
	}
	tbl, err := Cluster(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, want := range []string{"single process", "cluster, 1 worker(s)",
		"cluster, 1 of 3 killed", "corruption healed"} {
		if !strings.Contains(out, want) {
			t.Errorf("cluster table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "no") {
		t.Fatalf("a cluster row failed verification:\n%s", out)
	}
}

func TestFailoverExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback failover cluster runs in -short mode")
	}
	// fastCfg's tiny Sizes are ignored: the experiment pins its own
	// 600-point instance so the replication-keyed kill always lands.
	tbl, err := Failover(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, want := range []string{"primary killed, 2 workers", "primary killed, 3 workers"} {
		if !strings.Contains(out, want) {
			t.Errorf("failover table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "no") {
		t.Fatalf("a failover row failed verification:\n%s", out)
	}
	for _, row := range tbl.Rows {
		if row[4] != "2" {
			t.Fatalf("takeover epoch = %s, want 2:\n%s", row[4], out)
		}
	}
}

func TestOutOfCoreExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("paged solve sweep runs in -short mode")
	}
	// fastCfg's tiny Sizes are ignored: the experiment pins its own
	// 600-point instance so the sweep's smallest budget still spills.
	tbl, err := OutOfCore(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	if !strings.Contains(out, "Out-of-core paging") {
		t.Fatalf("unexpected table title:\n%s", out)
	}
	if len(tbl.Rows) < 2 {
		t.Fatalf("sweep produced %d rows, want the in-core point plus spilling points", len(tbl.Rows))
	}
	// The smallest budget must actually have gone out of core.
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[2] == "0" {
		t.Fatalf("smallest budget spilled nothing:\n%s", out)
	}
	if strings.Contains(out, "no") {
		t.Fatalf("an out-of-core row failed verification:\n%s", out)
	}
}
