// Command bench is CellNPDP's benchmark. It drives four seeded
// workloads as closed loops from this one process, checks every op
// against the serial oracle, and reports the end-to-end metrics whose
// regression bounds BENCHMARK.json fixes. A traced run (-trace 1)
// reports per-layer numbers instead, each paired with its model, and
// -diff compares two result files by those bounds. See README.md.
//
//	bench -workload inmem-2048 -seed 1 -seconds 20 -trace 0
//	bench -seed 1 -out results.json            # every workload, one child process each
//	bench -diff old.json new.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// defaultSeconds is the measured window; BENCHMARK.json's run_seconds
// must match it.
const defaultSeconds = 20

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload, in this process (default: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the measured window")
	trace := fs.Int("trace", 0, "1: traced run, reporting the per-layer metrics instead of the end-to-end ones")
	short := fs.Bool("short", false, "n=512 instances and 0.5 s windows, for smoke tests")
	out := fs.String("out", "", "append each run's record to this result file")
	diff := fs.Bool("diff", false, "compare two result files: -diff old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if *diff {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -diff old.json new.json")
			return 2
		}
		regressed, err := diffResults(fs.Arg(0), fs.Arg(1), filepath.Join(root, "BENCHMARK.json"), stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if regressed {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	secondsSet := false
	fs.Visit(func(f *flag.Flag) { secondsSet = secondsSet || f.Name == "seconds" })
	if *short && !secondsSet {
		*seconds = 0.5
	}
	// Spill files and every other temporary stay inside the checkout.
	tmp := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	os.Setenv("TMPDIR", tmp)
	cfg := config{seed: *seed, seconds: *seconds, short: *short, trace: *trace == 1, root: root}

	if *name == "" {
		return runAll(cfg, *out, stdout, stderr)
	}
	rec, err := runWorkload(cfg, *name, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := appendResult(*out, rec); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if err := rec.print(stdout); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload, one after another, each in its own child
// process so that peak RSS is per workload.
func runAll(cfg config, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		trace := "0"
		if cfg.trace {
			trace = "1"
		}
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace}
		if cfg.short {
			args = append(args, "-short")
		}
		if out != "" {
			args = append(args, "-out", out)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

// findRoot returns the nearest directory at or above the working
// directory that holds BENCHMARK.json: the root of the checkout.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}
