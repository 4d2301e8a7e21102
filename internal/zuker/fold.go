package zuker

import (
	"fmt"
	"runtime"

	"cellnpdp/internal/cellsim"
	"cellnpdp/internal/npdp"
	"cellnpdp/internal/pipeline"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tri"
)

// Engine selects the NPDP backend for the bifurcation layer.
type Engine int

// The available backends.
const (
	EngineSerial   Engine = iota // original Figure 1 loop
	EngineTiled                  // serial tiled on the new data layout
	EngineParallel               // goroutine task-queue (Section IV-B)
	EngineCell                   // full CellNPDP on the simulated Cell
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineSerial:
		return "serial"
	case EngineTiled:
		return "tiled"
	case EngineParallel:
		return "parallel"
	case EngineCell:
		return "cell"
	}
	return "engine(?)"
}

// Options configures Fold.
type Options struct {
	Engine  Engine
	Workers int // parallel/cell engines; defaults to GOMAXPROCS (capped at 16 for cell)
	Tile    int // tiled/parallel/cell engines; defaults to 32
	Model   *EnergyModel
	// Constraints, when non-nil, restricts which bases may pair.
	Constraints *Constraints
}

// Result is a completed fold.
type Result struct {
	Seq Seq
	// MFE is the minimum free energy of the sequence (0 for a sequence
	// that cannot form a single pair).
	MFE float32
	// V is the pairing-layer table: V.At(i,j) is the best energy of
	// [i,j] with i and j paired (infinite when unpairable).
	V *tri.RowMajor[float32]
	// W is the bifurcation-layer table over half-open intervals:
	// W.At(a,b) is the best energy of bases [a, b), so the table has
	// len(Seq)+1 points and MFE = W.At(0, len(Seq)).
	W *tri.RowMajor[float32]
	// CellTime is the modeled QS20 seconds of the bifurcation layer when
	// Engine == EngineCell, 0 otherwise.
	CellTime float64
	// Model is the energy model the fold ran under.
	Model *EnergyModel
}

// computeV fills the pairing layer by diagonal sweep: a pair closes a
// hairpin, stacks directly on the pair inside it, or closes a bulge or
// internal loop of total unpaired size ≤ MaxLoop around a nested pair —
// the standard Zuker pairing cases with the implementation's usual loop
// bound [17]. O(n²·MaxLoop²).
func computeV(seq Seq, m *EnergyModel, cons *Constraints) *tri.RowMajor[float32] {
	n := len(seq)
	v := tri.NewRowMajor[float32](n)
	inf := semiring.Inf[float32]()
	for span := m.MinHairpin + 1; span < n; span++ {
		for i := 0; i+span < n; i++ {
			j := i + span
			outer := pairKind(seq[i], seq[j])
			if outer < 0 || !cons.Allows(i, j) {
				continue // stays infinite
			}
			best := m.hairpinEnergy(j - i - 1)
			// Nested pair (p, q) with a = p-i-1 and b = j-q-1 unpaired
			// bases around it; a = b = 0 is the stacking case.
			maxA := m.MaxLoop
			for a := 0; a <= maxA; a++ {
				p := i + 1 + a
				if p >= j {
					break
				}
				for b := 0; a+b <= m.MaxLoop; b++ {
					q := j - 1 - b
					if q-p <= m.MinHairpin {
						break
					}
					inner := pairKind(seq[p], seq[q])
					if inner < 0 {
						continue
					}
					if iv := v.At(p, q); iv < inf {
						if s := iv + m.loopEnergy(outer, inner, a, b); s < best {
							best = s
						}
					}
					if m.MaxLoop == 0 {
						break
					}
				}
				if m.MaxLoop == 0 {
					break
				}
			}
			v.Set(i, j, m.PairBonus[outer]+best)
		}
	}
	return v
}

// buildW seeds the bifurcation table over half-open intervals: a single
// base costs 0, any pairable span may close with V, and the NPDP closure
// composes adjacent substructures.
func buildW(seq Seq, v *tri.RowMajor[float32]) *tri.RowMajor[float32] {
	n := len(seq)
	w := tri.NewRowMajor[float32](n + 1)
	for a := 0; a <= n; a++ {
		w.Set(a, a, 0)
		if a < n {
			w.Set(a, a+1, 0) // one unpaired base
		}
	}
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			w.Set(i, j+1, v.At(i, j))
		}
	}
	return w
}

// Fold predicts the minimum-free-energy secondary structure of seq,
// running the O(n³) bifurcation layer on the selected NPDP engine.
func Fold(seq Seq, opts Options) (*Result, error) {
	if len(seq) == 0 {
		return nil, fmt.Errorf("zuker: empty sequence")
	}
	model := opts.Model
	if model == nil {
		model = DefaultEnergy()
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	tile := opts.Tile
	if tile <= 0 {
		tile = 32
	}

	if err := opts.Constraints.Check(len(seq)); err != nil {
		return nil, err
	}
	v := computeV(seq, model, opts.Constraints)
	w := buildW(seq, v)
	res := &Result{Seq: seq, V: v, W: w, Model: model}

	switch opts.Engine {
	case EngineSerial:
		npdp.SolveSerial(w)
	case EngineTiled:
		tw := tri.ToTiled(w, tile)
		if _, err := npdp.SolveTiled(tw); err != nil {
			return nil, err
		}
		tri.Copy(w, tw)
	case EngineParallel:
		tw := tri.ToTiled(w, tile)
		if _, err := npdp.SolveParallel(tw, npdp.ParallelOptions{Workers: workers, SchedSide: 1}); err != nil {
			return nil, err
		}
		tri.Copy(w, tw)
	case EngineCell:
		mach, err := cellsim.NewMachine(cellsim.QS20())
		if err != nil {
			return nil, err
		}
		if workers > len(mach.SPEs) {
			workers = len(mach.SPEs)
		}
		tw := tri.ToTiled(w, tile)
		cres, err := npdp.SolveCell(tw, mach, npdp.CellOptions{
			Workers:           workers,
			SchedSide:         1,
			UseSIMD:           true,
			DoubleBuffer:      true,
			CBStepCycles:      pipeline.CBStepCyclesSP(),
			ScalarRelaxCycles: npdp.DefaultScalarRelaxCycles,
		})
		if err != nil {
			return nil, err
		}
		res.CellTime = cres.Seconds
		tri.Copy(w, tw)
	default:
		return nil, fmt.Errorf("zuker: unknown engine %d", opts.Engine)
	}
	res.MFE = w.At(0, len(seq))
	return res, nil
}
