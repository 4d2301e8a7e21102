// Command benchtables regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md for the experiment index).
//
// Usage:
//
//	benchtables                 # all experiments at scaled sizes
//	benchtables -full           # additionally model the paper's sizes
//	benchtables -run fig10a     # one experiment
//	benchtables -list           # list experiment names
//	benchtables -calibrate scripts/kernel_calibration.txt  # per-kernel costs
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	"cellnpdp/internal/harness"
	"cellnpdp/internal/kernel"
	"cellnpdp/internal/perfmodel"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchtables: ")
	var (
		full    = flag.Bool("full", false, "include paper-size (4096-16384) modeled runs and larger measured sizes")
		run     = flag.String("run", "", "run a single experiment by name")
		list    = flag.Bool("list", false, "list experiment names and exit")
		workers = flag.Int("workers", 0, "CPU workers for measured runs (0 = min(GOMAXPROCS, 8))")
		seed    = flag.Int64("seed", 1, "workload seed")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables (with -run)")
		calib   = flag.String("calibrate", "", "measure this machine's per-kernel stage-1 costs and write them as this host's [arch/isa] section of the calibration file at this path (normally scripts/kernel_calibration.txt), keeping the other sections")
	)
	flag.Parse()

	if *calib != "" {
		if err := calibrate(*calib); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-14s %s\n", e.Name, e.Desc)
		}
		return
	}
	cfg := harness.Config{Full: *full, Workers: *workers, Seed: *seed, Out: os.Stdout}
	if *run != "" {
		e, ok := harness.Lookup(*run)
		if !ok {
			log.Fatalf("unknown experiment %q (use -list)", *run)
		}
		t, err := e.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t)
		}
		return
	}
	if err := harness.RunAll(cfg); err != nil {
		log.Fatal(err)
	}
}

// calibrate measures this host's kernels and writes them into the
// calibration file at path as the host's [arch/isa] section, replacing
// an earlier measurement of the same host kind and keeping every other
// host's section. A missing file is created; a malformed one is left
// alone and reported.
func calibrate(path string) error {
	body, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	if _, err := perfmodel.ParseCalibration(string(body), runtime.GOARCH, kernel.VectorISA()); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	cal := perfmodel.Calibrate(nil)
	if err := os.WriteFile(path, []byte(perfmodel.MergeCalibration(string(body), cal)), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote [%s/%s] to %s\n", cal.Arch, cal.ISA, path)
	return nil
}
