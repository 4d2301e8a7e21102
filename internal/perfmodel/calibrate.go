package perfmodel

import (
	"math/rand"
	"runtime"
	"sort"
	"time"

	"cellnpdp/internal/fourrussians"
	"cellnpdp/internal/kernel"
)

// Calibrate measures this machine's per-kernel stage-1 costs — the
// empirical constants the Section V model needs before PickKernel can
// rank kernels the way the paper ranks block sizes. It times the scalar
// CB-step reference, the pure-Go panel (vector dispatch forced off) and
// the vector kernel (where the ISA exists) over the given block sides
// (by default 16, 32, 64 and 88, the engines' float32 tile at the
// paper's 32 KB block),
// and probes the Four-Russians crossover against the serial Nussinov
// reference. Runs take a few hundred milliseconds; the result is meant
// to be persisted (MergeCalibration → scripts/kernel_calibration.txt)
// and reloaded, not measured per process.
func Calibrate(blocks []int) *Calibration {
	if len(blocks) == 0 {
		blocks = []int{16, 32, 64, 88}
	}
	cal := &Calibration{
		Arch:      runtime.GOARCH,
		ISA:       kernel.VectorISA(),
		NsPerCell: make(map[Kernel]map[int]float64),
	}
	put := func(k Kernel, t int, ns float64) {
		if cal.NsPerCell[k] == nil {
			cal.NsPerCell[k] = make(map[int]float64)
		}
		cal.NsPerCell[k][t] = ns
	}
	for _, t := range blocks {
		if t < 4 || t%4 != 0 {
			continue
		}
		c, a, b := randF32(t, 1), randF32(t, 2), randF32(t, 3)
		put(KernelScalar, t, timeNsPerCell(t, func() { kernel.MulMinPlus(c, a, b, t) }))
		func() {
			defer kernel.SetVectorEnabled(false)()
			put(KernelPanel, t, timeNsPerCell(t, func() { kernel.PanelMinPlusF32(c, a, b, t) }))
		}()
		if kernel.VectorEnabled() {
			put(KernelVector, t, timeNsPerCell(t, func() { kernel.PanelMinPlusF32(c, a, b, t) }))
		}
	}
	cal.FourRussiansCrossover = fourRussiansCrossover()
	return cal
}

// timeNsPerCell times fn (one t×t panel product = t³ relaxed cells): it
// doubles the repetitions until one trial takes at least 5 ms, so timer
// granularity is swamped, then returns the median of five such trials,
// so one descheduled trial on a shared host does not become the
// calibration.
func timeNsPerCell(t int, fn func()) float64 {
	fn() // warm caches and page in
	cells := float64(t) * float64(t) * float64(t)
	trial := func(reps int) time.Duration {
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		return time.Since(start)
	}
	reps := 1
	for reps < 1<<20 && trial(reps) < 5*time.Millisecond {
		reps *= 2
	}
	var trials [5]float64
	for k := range trials {
		trials[k] = float64(trial(reps).Nanoseconds()) / (cells * float64(reps))
	}
	sort.Float64s(trials[:])
	return trials[len(trials)/2]
}

// fourRussiansCrossover finds the smallest probed n where the
// two-vector solve beats the serial reference; 0 when it never wins.
// The probe set brackets the typical crossover (measured ≈ 600 on the
// reference machine) without making calibration slow.
func fourRussiansCrossover() int {
	for _, n := range []int{256, 512, 768, 1024} {
		pair := calPair(n)
		t0 := time.Now()
		if _, err := fourrussians.SolveSerial(n, pair, 1); err != nil {
			return 0
		}
		serial := time.Since(t0)
		t1 := time.Now()
		if _, err := fourrussians.Solve(n, pair, fourrussians.Options{MinSpan: 1}); err != nil {
			return 0
		}
		if time.Since(t1) < serial {
			return n
		}
	}
	return 0
}

// calPair is a deterministic random RNA pairing predicate.
func calPair(n int) fourrussians.PairFunc {
	rng := rand.New(rand.NewSource(int64(n)))
	seq := make([]byte, n)
	for i := range seq {
		seq[i] = "ACGU"[rng.Intn(4)]
	}
	return fourrussians.RNAPair(seq)
}

// randF32 builds a deterministic t×t block of small positive values.
func randF32(t int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, t*t)
	for i := range out {
		out[i] = rng.Float32() * 8
	}
	return out
}
