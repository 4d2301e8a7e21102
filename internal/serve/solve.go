package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"cellnpdp"
	"cellnpdp/internal/resilience"
	"cellnpdp/internal/workload"
)

// SolveRequest is the POST /solve body. The instance itself is a seeded
// chain workload (the harness' standard NPDP shape): the service solves
// problems, it does not ingest gigabyte tables over JSON.
type SolveRequest struct {
	// N is the problem size (2..MaxN).
	N int `json:"n"`
	// Precision is "single" (default) or "double".
	Precision string `json:"precision,omitempty"`
	// Engine is "auto" (default: parallel unless the breaker is open),
	// "parallel", or "tiled".
	Engine string `json:"engine,omitempty"`
	// Seed selects the chain instance.
	Seed int64 `json:"seed,omitempty"`
	// DeadlineMS bounds the request end to end; 0 uses the server
	// default. Requests whose deadline is below the model-predicted
	// solve time are shed with 503 before consuming budget.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// FaultRate/FaultSeed drive the deterministic fault injector in the
	// parallel engine — load tests use them to exercise degradation.
	FaultRate float64 `json:"fault_rate,omitempty"`
	FaultSeed int64   `json:"fault_seed,omitempty"`
	// FaultKinds selects the injected fault kinds (comma-separated:
	// error, panic, delay, corrupt; empty = error) and Heal enables
	// block sealing + poisoned-cone self-healing in the engine — load
	// tests use them to exercise silent-corruption recovery end to end.
	FaultKinds string `json:"fault_kinds,omitempty"`
	Heal       bool   `json:"heal,omitempty"`
}

// IntegrityReport is the integrity section of a 200 response: proof the
// bytes serialized are the bytes solved.
type IntegrityReport struct {
	CRCOK        bool   `json:"crc_ok"`
	Bands        int    `json:"bands"`
	CRC32C       string `json:"crc32c"` // whole-table digest, hex
	ResidualOK   bool   `json:"residual_ok"`
	CellsSampled int    `json:"cells_sampled"`
}

// SolveResponse is the 200 body.
type SolveResponse struct {
	N              int    `json:"n"`
	Precision      string `json:"precision"`
	Engine         string `json:"engine"`
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	// Healed reports that the first solve's result failed integrity
	// verification and the serving layer recovered with one in-process
	// re-solve; CorruptBlocks/HealRounds are the engine-level sealing
	// layer's own counters for the solve that produced this response.
	Healed           bool            `json:"healed,omitempty"`
	CorruptBlocks    int             `json:"corrupt_blocks,omitempty"`
	HealRounds       int             `json:"heal_rounds,omitempty"`
	Relaxations      int64           `json:"relaxations"`
	WallSeconds      float64         `json:"wall_seconds"`
	QueueSeconds     float64         `json:"queue_seconds"`
	PredictedSeconds float64         `json:"predicted_seconds"`
	FootprintBytes   int64           `json:"footprint_bytes"`
	Cost             float64         `json:"d0_n1"` // the solved objective d[0][n-1]
	Integrity        IntegrityReport `json:"integrity"`
}

// handleSolve runs the admission pipeline: drain gate, validation,
// footprint/rate/deadline admission, memory-gate queue, then the solve
// itself with integrity verification. Status mapping: 400 invalid
// request, 413 footprint can never fit the budget, 429 rate-limited or
// queue overflow (with Retry-After), 503 draining / deadline shed /
// expired in queue / timed out mid-solve, 500 engine or integrity
// failure.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	// Count the request in-flight before the drain check, so Drain
	// followed by Wait never misses a request that had already passed
	// the gate.
	s.inflight.Add(1)
	defer s.inflight.Done()
	s.active.Add(1)
	defer s.active.Add(-1)

	if r.Method != http.MethodPost {
		s.reject(w, http.StatusMethodNotAllowed, 0, "solve is POST-only")
		return
	}
	if s.draining.Load() {
		s.reject(w, http.StatusServiceUnavailable, 0, "server is draining")
		return
	}
	var req SolveRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.reject(w, http.StatusBadRequest, 0, "decoding request: %v", err)
		return
	}
	if req.N < 2 || req.N > s.cfg.maxN() {
		s.reject(w, http.StatusBadRequest, 0, "n must be in [2, %d], got %d", s.cfg.maxN(), req.N)
		return
	}
	switch req.Precision {
	case "", "single", "double":
	default:
		s.reject(w, http.StatusBadRequest, 0, "precision must be single or double, got %q", req.Precision)
		return
	}
	switch req.Engine {
	case "", "auto", "parallel", "tiled":
	default:
		s.reject(w, http.StatusBadRequest, 0, "engine must be auto, parallel or tiled, got %q", req.Engine)
		return
	}
	if req.FaultRate < 0 || req.FaultRate >= 1 {
		s.reject(w, http.StatusBadRequest, 0, "fault_rate must be in [0, 1), got %g", req.FaultRate)
		return
	}
	if _, err := resilience.ParseFaultKinds(req.FaultKinds); err != nil {
		s.reject(w, http.StatusBadRequest, 0, "fault_kinds: %v", err)
		return
	}
	if req.DeadlineMS < 0 {
		s.reject(w, http.StatusBadRequest, 0, "deadline_ms must be non-negative, got %d", req.DeadlineMS)
		return
	}

	opts := cellnpdp.Options{Workers: s.cfg.workers(), BlockBytes: s.cfg.BlockBytes}
	var est cellnpdp.SolveEstimate
	var err error
	if req.Precision == "double" {
		est, err = cellnpdp.EstimateSolve[float64](req.N, opts)
	} else {
		est, err = cellnpdp.EstimateSolve[float32](req.N, opts)
	}
	if err != nil {
		s.reject(w, http.StatusBadRequest, 0, "estimating solve: %v", err)
		return
	}
	if est.FootprintBytes > s.gate.budget {
		// Not even an empty server could admit this one; 413, not 429 —
		// retrying will never help.
		s.reject(w, http.StatusRequestEntityTooLarge, 0,
			"n=%d needs %d bytes, beyond the %d-byte budget", req.N, est.FootprintBytes, s.gate.budget)
		return
	}
	if ok, retryAfter := s.bucket.take(); !ok {
		s.reject(w, http.StatusTooManyRequests, retryAfter, "rate limit exceeded")
		return
	}

	deadline := s.cfg.deadline()
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	predicted := est.PredictedSeconds * s.cfg.predictFactor()
	// Deadline sheds advertise Retry-After like the 429s do: one
	// predicted solve time is when retrying (with a fresh deadline, or
	// once load clears) has a chance of landing differently.
	shedRetryAfter := time.Duration(predicted * float64(time.Second))
	if deadline.Seconds() < predicted {
		// Deadline-aware shedding: the Section V model says this solve
		// cannot finish in time, so don't burn budget discovering that.
		s.reject(w, http.StatusServiceUnavailable, shedRetryAfter,
			"deadline %v below predicted solve time %.3gs for n=%d", deadline, predicted, req.N)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()
	queueStart := time.Now()
	result, release := s.gate.acquire(ctx, est.FootprintBytes)
	switch result {
	case admitQueueFull:
		// Suggest retrying after roughly one predicted solve time — when
		// budget is likely to have freed up.
		s.reject(w, http.StatusTooManyRequests, time.Duration(predicted*float64(time.Second)),
			"admission queue full (%d waiting, budget %d bytes)", s.cfg.queueDepth(), s.gate.budget)
		return
	case admitExpired:
		s.reject(w, http.StatusServiceUnavailable, 0, "request expired while queued for memory budget")
		return
	}
	defer release()
	queueSecs := time.Since(queueStart).Seconds()
	if remaining := deadline.Seconds() - queueSecs; remaining < predicted {
		// The wait consumed the slack the prediction needed; shed now
		// rather than time out mid-solve holding budget.
		s.reject(w, http.StatusServiceUnavailable, shedRetryAfter,
			"remaining deadline %.3gs below predicted solve time %.3gs after queueing", remaining, predicted)
		return
	}

	if req.Precision == "double" {
		solveOne[float64](s, w, ctx, req, est, queueSecs, predicted)
	} else {
		solveOne[float32](s, w, ctx, req, est, queueSecs, predicted)
	}
}

// solveOne runs the admitted solve at one precision: engine selection
// through the circuit breaker, the solve under its deadline context, and
// the integrity pipeline (digest at solve time, residual spot check,
// re-verify before serialization).
func solveOne[E cellnpdp.Elem](s *Server, w http.ResponseWriter, ctx context.Context, req SolveRequest, est cellnpdp.SolveEstimate, queueSecs, predicted float64) {
	engine := cellnpdp.Parallel
	breakerBypass := false
	recordBreaker := false
	switch req.Engine {
	case "tiled":
		engine = cellnpdp.Tiled
	case "parallel", "auto", "":
		if s.brk.allowParallel() {
			recordBreaker = true
		} else {
			engine = cellnpdp.Tiled
			breakerBypass = true
		}
	}

	opts := cellnpdp.Options{
		Engine:     engine,
		Workers:    s.cfg.workers(),
		BlockBytes: s.cfg.BlockBytes,
		MaxRetries: s.cfg.maxRetries(),
		FaultRate:  req.FaultRate,
		FaultSeed:  req.FaultSeed,
		FaultKinds: req.FaultKinds,
		Heal:       req.Heal,
		Logf:       s.cfg.Logf,
	}

	// An integrity failure below the engine (a torn band CRC or a residual
	// that no longer satisfies the recurrence) gets exactly one in-process
	// heal-and-retry: discard the poisoned table, re-solve from scratch,
	// and only if the fresh result fails too does the request become a
	// 500. One retry, not more — a host that corrupts twice in a row is
	// not going to be talked out of it by a third solve.
	var (
		t           *cellnpdp.Table[E]
		res         *cellnpdp.Result
		digest      Digest
		sampled     int
		healedRetry bool
	)
	const integrityAttempts = 2
	for attempt := 0; ; attempt++ {
		// Build the seeded instance fresh each attempt: diagonal zero,
		// superdiagonal from the chain workload, everything else at
		// infinity. A retry must not reuse a possibly-corrupted table.
		var err error
		t, err = cellnpdp.NewTable[E](req.N)
		if err != nil {
			s.reject(w, http.StatusInternalServerError, 0, "allocating table: %v", err)
			return
		}
		for i, v := range workload.ChainSuperdiagonal[E](req.N, req.Seed) {
			if err := t.Set(i, i+1, v); err != nil {
				s.reject(w, http.StatusInternalServerError, 0, "building instance: %v", err)
				return
			}
		}

		res, err = cellnpdp.SolveCtx(ctx, t, opts)
		if recordBreaker {
			s.brk.record(err == nil && !res.Degraded)
		}
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				s.reject(w, http.StatusServiceUnavailable, 0, "solve did not finish within the deadline: %v", err)
				return
			}
			s.reject(w, http.StatusInternalServerError, 0, "solve failed: %v", err)
			return
		}

		// Integrity: digest the solved table now, spot-check the
		// recurrence, then re-verify the digest immediately before
		// serializing — any mutation in between becomes a heal-and-retry
		// and then a 500, never a silently wrong answer.
		digest, err = DigestTable(t, 0)
		if err != nil {
			s.reject(w, http.StatusInternalServerError, 0, "digesting result: %v", err)
			return
		}
		var integrityErr error
		integrityFmt := ""
		sampled, err = ResidualSpotCheck(t, s.cfg.ResidualSamples, req.Seed)
		if err != nil {
			integrityErr, integrityFmt = err, "result failed integrity check: %v"
		} else {
			if s.corruptAfterDigest != nil {
				s.corruptAfterDigest(t)
			}
			if verr := VerifyDigest(t, digest); verr != nil {
				integrityErr, integrityFmt = verr, "result corrupted before serialization: %v"
			}
		}
		if integrityErr == nil {
			break
		}
		if attempt+1 >= integrityAttempts {
			s.reject(w, http.StatusInternalServerError, 0, integrityFmt, integrityErr)
			return
		}
		s.cfg.logf("serve: integrity failure on n=%d (attempt %d), re-solving in-process: %v",
			req.N, attempt+1, integrityErr)
		healedRetry = true
	}
	if healedRetry {
		s.mu.Lock()
		s.healed++
		s.mu.Unlock()
	}

	cost, err := t.At(0, req.N-1)
	if err != nil {
		s.reject(w, http.StatusInternalServerError, 0, "reading result: %v", err)
		return
	}
	degraded := res.Degraded || breakerBypass
	reason := res.DegradedReason
	if breakerBypass {
		reason = "circuit breaker open: parallel engine bypassed"
	}
	if degraded {
		s.mu.Lock()
		s.degraded++
		s.mu.Unlock()
	}
	precision := req.Precision
	if precision == "" {
		precision = "single"
	}
	s.writeJSON(w, http.StatusOK, SolveResponse{
		N:                req.N,
		Precision:        precision,
		Engine:           res.Engine.String(),
		Degraded:         degraded,
		DegradedReason:   reason,
		Healed:           healedRetry,
		CorruptBlocks:    res.CorruptBlocks,
		HealRounds:       res.HealRounds,
		Relaxations:      res.Relaxations,
		WallSeconds:      res.WallSeconds,
		QueueSeconds:     queueSecs,
		PredictedSeconds: predicted,
		FootprintBytes:   est.FootprintBytes,
		Cost:             float64(cost),
		Integrity: IntegrityReport{
			CRCOK:        true,
			Bands:        len(digest.Bands),
			CRC32C:       fmt.Sprintf("%08x", digest.Whole),
			ResidualOK:   true,
			CellsSampled: sampled,
		},
	})
}
