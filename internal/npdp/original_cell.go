package npdp

import (
	"fmt"
	"sync"

	"cellnpdp/internal/cachesim"
	"cellnpdp/internal/cellsim"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tri"
)

// This file implements the paper's Cell baselines: the original Figure 1
// algorithm run on one SPE (Section VI-A's baseline, Table II row "one
// SPE") and on the PPE (Table II row "one PPE").
//
// The SPE baseline follows Section VI-A's description: "each DMA command
// prefetches multiple data in one row or a data in one column" — the row
// operand d[i][i..j-1] streams through a chunked buffer while every
// column operand d[k][j] costs its own quadword DMA, so the run is
// dominated by per-command DMA latency. The row-major layout makes
// nothing better than this possible without the paper's restructuring.

// OriginalSPEChunkBytes is the row-stream DMA chunk (a 4 KB transfer).
const OriginalSPEChunkBytes = 4096

// OriginalSPEResult reports an original-algorithm SPE run.
type OriginalSPEResult struct {
	Seconds float64
	DMA     cellsim.DMAStats
	Relax   int64
}

// SolveOriginalSPE runs the original algorithm functionally on one
// simulated SPE, staging all operands through the local store exactly as
// the baseline would: chunked row streams, per-element column fetches,
// per-element write-back. Results are bit-identical to SolveSerial.
// It costs O(n³) DMA bookings, so keep n modest; use ModelOriginalSPE
// for paper-scale sizes.
func SolveOriginalSPE[E semiring.Elem](m *tri.RowMajor[E], mach *cellsim.Machine, scalarRelaxCycles float64) (OriginalSPEResult, error) {
	if scalarRelaxCycles <= 0 {
		return OriginalSPEResult{}, fmt.Errorf("npdp: scalarRelaxCycles must be positive, got %g", scalarRelaxCycles)
	}
	mach.Reset()
	spe := mach.SPEs[0]
	eb := semiring.Width[E]()
	chunkElems := OriginalSPEChunkBytes / eb
	rowBuf, err := cellsim.Alloc[E](spe, chunkElems, eb)
	if err != nil {
		return OriginalSPEResult{}, err
	}
	defer rowBuf.Free()
	elemBuf, err := cellsim.Alloc[E](spe, 1, eb)
	if err != nil {
		return OriginalSPEResult{}, err
	}
	defer elemBuf.Free()

	n := m.Len()
	var res OriginalSPEResult
	for j := 0; j < n; j++ {
		for i := j - 1; i >= 0; i-- {
			v := m.At(i, j)
			for lo := i; lo < j; lo += chunkElems {
				hi := lo + chunkElems
				if hi > j {
					hi = j
				}
				// Stream the row segment d[i][lo..hi-1] into the buffer.
				if err := rowBuf.Get(m.Row(i, lo, hi-1), 0); err != nil {
					return res, err
				}
				spe.WaitTag(0)
				for k := lo; k < hi; k++ {
					// One quadword DMA per column operand d[k][j].
					if err := elemBuf.Get(m.Row(k, j, j), 1); err != nil {
						return res, err
					}
					spe.WaitTag(1)
					if w := rowBuf.Data[k-lo] + elemBuf.Data[0]; w < v {
						v = w
					}
				}
			}
			spe.AdvanceCycles(float64(j-i) * scalarRelaxCycles)
			res.Relax += int64(j - i)
			m.Set(i, j, v)
			elemBuf.Data[0] = v
			if err := elemBuf.Put(m.Row(i, j, j), 2); err != nil {
				return res, err
			}
			spe.WaitTag(2)
		}
	}
	res.Seconds = spe.Clock
	res.DMA = mach.Stats
	return res, nil
}

// ModelOriginalSPE computes the exact DMA/cycle accounting of
// SolveOriginalSPE in O(n²) without data, for paper-scale sizes. A test
// pins it to the functional run.
func ModelOriginalSPE(n int, prec Precision, cfg cellsim.Config, scalarRelaxCycles float64) (OriginalSPEResult, error) {
	if err := tri.CheckSize(n); err != nil {
		return OriginalSPEResult{}, err
	}
	if err := cfg.Validate(); err != nil {
		return OriginalSPEResult{}, err
	}
	if scalarRelaxCycles <= 0 {
		return OriginalSPEResult{}, fmt.Errorf("npdp: scalarRelaxCycles must be positive, got %g", scalarRelaxCycles)
	}
	eb := prec.ElemBytes()
	chunkElems := OriginalSPEChunkBytes / eb
	var res OriginalSPEResult
	seconds := 0.0
	bw := cfg.ChannelBandwidth
	perCmd := cfg.DMALatency + cfg.DMACommandOverhead
	granule := func(bytes int) float64 { return float64((bytes + 15) &^ 15) }
	// Aggregate by span: there are n−s cells with span s, all identical.
	for s := 1; s < n; s++ {
		cells := float64(n - s)
		var cellSec float64
		chunks := (s + chunkElems - 1) / chunkElems
		// Row stream: `chunks` commands carrying s elements total.
		fullChunks := s / chunkElems
		cellSec += float64(fullChunks) * (granule(chunkElems*eb)/bw + perCmd)
		if rem := s % chunkElems; rem > 0 {
			cellSec += granule(rem*eb)/bw + perCmd
		}
		res.DMA.GetCommands += int64(n-s) * int64(chunks)
		// Column fetches: one quadword command per k.
		cellSec += float64(s) * (granule(eb)/bw + perCmd)
		res.DMA.GetCommands += int64(n-s) * int64(s)
		res.DMA.GetBytes += 2 * int64(n-s) * int64(s*eb)
		// Compute and write-back.
		cellSec += float64(s) * scalarRelaxCycles / cfg.ClockHz
		cellSec += granule(eb)/bw + perCmd
		res.DMA.PutCommands += int64(n - s)
		res.DMA.PutBytes += int64(n-s) * int64(eb)
		res.Relax += int64(n-s) * int64(s)
		seconds += cells * cellSec
	}
	res.Seconds = seconds
	return res, nil
}

// PPEModel parameterizes the PPE baseline: a conventional cached scalar
// core running Figure 1 (Table II row "one PPE"). Two memory effects
// dominate it at paper sizes: cache misses (measured trace-driven through
// the PPE hierarchy) and TLB misses — the column walk d[k][j] strides by
// a whole row (≈ n×S bytes, several pages), so once a cell's span j−i
// exceeds the TLB reach every column access pays a hardware table walk.
type PPEModel struct {
	HitCycles   float64 // cycles per relaxation when operands hit cache
	MissPenalty float64 // cycles per cache-line fill from memory
	TLBEntries  int     // data-TLB entries (pages held)
	TLBPenalty  float64 // cycles per table walk
	PageBytes   int
	ClockHz     float64
	// CalibrationSize caps the trace-driven cache-miss measurement; the
	// cache miss rate per relaxation is nearly size-independent once the
	// column working set exceeds the L1, so larger problems reuse the
	// capped measurement. The TLB term is computed analytically at full
	// size.
	CalibrationSize int
}

// DefaultPPEModel returns the QS20 PPE parameters: a 3.2 GHz in-order
// core with 32 KB L1D, 512 KB L2 and a 1024-entry TLB over 4 KB pages.
func DefaultPPEModel() PPEModel {
	return PPEModel{
		HitCycles: 6, MissPenalty: 350,
		TLBEntries: 1024, TLBPenalty: 200, PageBytes: 4096,
		ClockHz: 3.2e9, CalibrationSize: 512,
	}
}

// ppeCalCache memoizes the trace-driven calibration, which costs O(n³)
// cache-simulator accesses per (size, element width).
var ppeCalCache sync.Map // [2]int{cal, elemBytes} -> float64

// ppeMissPerRelax measures (once per size/width) the PPE hierarchy's
// last-level misses per relaxation on the Figure 1 access stream.
func ppeMissPerRelax(cal, elemBytes int) (float64, error) {
	key := [2]int{cal, elemBytes}
	if v, ok := ppeCalCache.Load(key); ok {
		return v.(float64), nil
	}
	h, err := ppeHierarchy()
	if err != nil {
		return 0, err
	}
	cachesim.TraceOriginal(h, cal, elemBytes)
	calRelax := float64(cal) * (float64(cal)*float64(cal) - 1) / 6
	miss := float64(h.LLC().Stats.Misses) / calRelax
	ppeCalCache.Store(key, miss)
	return miss, nil
}

// ppeHierarchy builds the PPE cache hierarchy.
func ppeHierarchy() (*cachesim.Hierarchy, error) {
	l1, err := cachesim.NewCache("PPE-L1D", 32*1024, 64, 8)
	if err != nil {
		return nil, err
	}
	l2, err := cachesim.NewCache("PPE-L2", 512*1024, 64, 8)
	if err != nil {
		return nil, err
	}
	return cachesim.NewHierarchy(l1, l2)
}

// ModelOriginalPPE estimates the original algorithm's time on the PPE:
// the Figure 1 access stream is replayed through the PPE cache hierarchy
// at the calibration size to measure cache misses per relaxation, the
// TLB-walk count is computed analytically at full size, and both are
// charged their penalties.
func ModelOriginalPPE(n int, prec Precision, model PPEModel) (float64, error) {
	if err := tri.CheckSize(n); err != nil {
		return 0, err
	}
	if model.HitCycles <= 0 || model.MissPenalty < 0 || model.ClockHz <= 0 ||
		model.CalibrationSize <= 0 || model.TLBEntries <= 0 || model.TLBPenalty < 0 || model.PageBytes <= 0 {
		return 0, fmt.Errorf("npdp: invalid PPE model %+v", model)
	}
	cal := n
	if cal > model.CalibrationSize {
		cal = model.CalibrationSize
	}
	missPerRelax, err := ppeMissPerRelax(cal, prec.ElemBytes())
	if err != nil {
		return 0, err
	}

	// TLB term: the column operand of a relaxation in cell (i,j) sits
	// (j−i) row strides away from its previous use (the i+1 iteration of
	// the same column), touching ≈ span pages in between; it misses the
	// TLB when span × rowPages exceeds the TLB reach.
	rowPages := float64(n*prec.ElemBytes()) / float64(model.PageBytes)
	if rowPages < 1 {
		rowPages = 1
	}
	reachSpans := float64(model.TLBEntries) / rowPages
	var relax, tlbMisses float64
	for s := 1; s < n; s++ {
		r := float64(n-s) * float64(s)
		relax += r
		if float64(s) > reachSpans {
			tlbMisses += r
		}
	}
	// When the page-table working set itself outgrows half the L2, every
	// table walk also misses cache and pays the memory penalty on top.
	// This threshold falls between n=4096 and n=8192 at single precision,
	// which is exactly where Table II's PPE row jumps superlinearly.
	walkPenalty := model.TLBPenalty
	pageTableBytes := float64(tri.CellCount(n)*prec.ElemBytes()) / float64(model.PageBytes) * 8
	if pageTableBytes > 512*1024/2 {
		walkPenalty += model.MissPenalty
	}
	cycles := relax*(model.HitCycles+missPerRelax*model.MissPenalty) + tlbMisses*walkPenalty
	return cycles / model.ClockHz, nil
}
