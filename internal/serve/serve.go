// Package serve is the long-running NPDP solve service: an HTTP/JSON
// front end over the cellnpdp engines with the robustness a fleet of
// concurrent requests needs and a single CLI solve does not.
//
//   - Admission control. A token bucket bounds the request rate, and a
//     memory-budget gate bounds residency: each request's table +
//     staging + checkpoint footprint is computed up front from the
//     paper's block geometry (cellnpdp.EstimateSolve) and admitted only
//     while the configured byte budget holds — the serving analogue of
//     the Cell's fixed 256 KB local store forcing explicit block
//     budgeting. Requests that do not fit wait in a bounded FIFO queue;
//     overflow is rejected with 429 + Retry-After, and requests whose
//     remaining deadline falls below the Section V model's predicted
//     solve time are shed with 503 instead of burning budget on work
//     that cannot finish in time.
//   - Isolation and degradation. Every solve runs under a context
//     derived from its deadline and inherits the resilience layer's
//     retry and panic isolation. A circuit breaker watches parallel-
//     engine outcomes service-wide: repeated failures trip it open and
//     route requests straight to the serial Tiled engine, with
//     half-open probes restoring the parallel path once it recovers.
//   - Lifecycle. Drain stops admission (503 for new work) while
//     in-flight solves finish; the `cellnpdp serve` command wires this
//     to SIGTERM and exits 0 after reporting per-outcome counts.
//   - Integrity. Each solved table is digested into per-band CRC32C
//     checksums at solve time and re-verified before the response
//     serializes, and a residual spot check re-evaluates the recurrence
//     at sampled cells — corrupted results become 500s, never silently
//     wrong answers.
package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes the server. The zero value serves with sane defaults;
// every knob is also a `cellnpdp serve` flag.
type Config struct {
	// Workers, BlockBytes and MaxRetries configure each solve, as in
	// cellnpdp.Options (0 = GOMAXPROCS / 32 KiB / 3 retries; negative
	// MaxRetries disables retry).
	Workers    int
	BlockBytes int
	MaxRetries int
	// BudgetBytes is the admission memory budget: total estimated
	// footprint of concurrently admitted solves. 0 = 4 GiB.
	BudgetBytes int64
	// QueueDepth bounds the FIFO admission queue; overflow is rejected
	// with 429. 0 = 8; negative = no queue (reject when full).
	QueueDepth int
	// RatePerSec and Burst shape the token bucket; RatePerSec 0 means
	// unlimited, Burst 0 means max(1, ceil(RatePerSec)).
	RatePerSec float64
	Burst      int
	// DefaultDeadline applies when a request names none. 0 = 30 s.
	DefaultDeadline time.Duration
	// MaxN bounds accepted problem sizes. 0 = 16384 (the paper's max).
	MaxN int
	// BreakerThreshold consecutive parallel failures trip the circuit
	// open for BreakerCooldown before a half-open probe. 0 = 3 / 5 s.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// PredictFactor calibrates the Section V model's seconds into this
	// host's wall seconds for deadline shedding. 0 = 1.
	PredictFactor float64
	// ResidualSamples is how many cells the residual spot check
	// re-evaluates. 0 = 64.
	ResidualSamples int
	// Logf receives operational messages; nil is silent.
	Logf func(format string, args ...any)
	// Clock is the time source, injectable for tests; nil = time.Now.
	Clock func() time.Time
}

func (c Config) workers() int { return c.Workers } // 0 delegates to cellnpdp
func (c Config) maxN() int    { return defInt(c.MaxN, 16384) }
func (c Config) budgetBytes() int64 {
	if c.BudgetBytes > 0 {
		return c.BudgetBytes
	}
	return 4 << 30
}
func (c Config) queueDepth() int {
	if c.QueueDepth < 0 {
		return 0
	}
	return defInt(c.QueueDepth, 8)
}
func (c Config) deadline() time.Duration {
	if c.DefaultDeadline > 0 {
		return c.DefaultDeadline
	}
	return 30 * time.Second
}
func (c Config) predictFactor() float64 {
	if c.PredictFactor > 0 {
		return c.PredictFactor
	}
	return 1
}
func (c Config) maxRetries() int {
	if c.MaxRetries < 0 {
		return 0
	}
	return defInt(c.MaxRetries, 3)
}
func (c Config) burst() int {
	if c.Burst > 0 {
		return c.Burst
	}
	return int(math.Max(1, math.Ceil(c.RatePerSec)))
}
func (c Config) clock() func() time.Time {
	if c.Clock != nil {
		return c.Clock
	}
	return time.Now
}
func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

func defInt(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// Server is one serving instance. Create with New, expose Handler on an
// http.Server, call Drain then Wait to shut down gracefully.
type Server struct {
	cfg    Config
	bucket *tokenBucket
	gate   *memGate
	brk    *breaker

	draining atomic.Bool
	inflight sync.WaitGroup
	active   atomic.Int64

	mu       sync.Mutex
	outcomes map[int]int64
	degraded int64
	healed   int64 // solves recovered by the in-process heal-and-retry

	// corruptAfterDigest, when non-nil, mutates the solved table (passed
	// as *cellnpdp.Table[E]) between digesting and the pre-serialize
	// re-verify — the test hook proving torn results become 500s.
	corruptAfterDigest func(table any)
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	now := cfg.clock()
	return &Server{
		cfg:      cfg,
		bucket:   newTokenBucket(cfg.RatePerSec, cfg.burst(), now),
		gate:     newMemGate(cfg.budgetBytes(), cfg.queueDepth()),
		brk:      newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, now),
		outcomes: make(map[int]int64),
	}
}

// Handler returns the HTTP surface: POST /solve, GET /healthz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", s.handleSolve)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// Drain stops admission: every subsequent request is rejected with 503
// while already-admitted solves run to completion. Idempotent.
func (s *Server) Drain() {
	if !s.draining.Swap(true) {
		s.cfg.logf("serve: draining — admission stopped, waiting for in-flight solves")
	}
}

// Draining reports whether admission is stopped.
func (s *Server) Draining() bool { return s.draining.Load() }

// Wait blocks until every in-flight request has finished. Callers drain
// first; the http.Server's own Shutdown covers the transport side.
func (s *Server) Wait() { s.inflight.Wait() }

// Outcomes returns a copy of the per-HTTP-status response counts.
func (s *Server) Outcomes() map[int]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]int64, len(s.outcomes))
	for k, v := range s.outcomes {
		out[k] = v
	}
	return out
}

// OutcomeSummary renders the outcome counts as "200=5 429=3 503=1".
func (s *Server) OutcomeSummary() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]int, 0, len(s.outcomes))
	for k := range s.outcomes {
		keys = append(keys, k)
	}
	// Small fixed set; insertion sort keeps it dependency-free.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	out := ""
	for _, k := range keys {
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%d=%d", k, s.outcomes[k])
	}
	if out == "" {
		out = "none"
	}
	return out
}

func (s *Server) recordOutcome(status int) {
	s.mu.Lock()
	s.outcomes[status]++
	s.mu.Unlock()
}

// ErrorResponse is the JSON body of every non-200 outcome.
type ErrorResponse struct {
	Error             string  `json:"error"`
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`
}

// writeJSON serializes v with the status and records the outcome.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.cfg.logf("serve: writing response: %v", err)
	}
	s.recordOutcome(status)
}

// reject emits an error outcome, attaching Retry-After when positive.
func (s *Server) reject(w http.ResponseWriter, status int, retryAfter time.Duration, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	resp := ErrorResponse{Error: msg}
	if retryAfter > 0 {
		secs := int(math.Ceil(retryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		resp.RetryAfterSeconds = retryAfter.Seconds()
	}
	s.writeJSON(w, status, resp)
}

// Health is the GET /healthz body.
type Health struct {
	Status      string `json:"status"` // "ok" or "draining"
	Inflight    int64  `json:"inflight"`
	BudgetBytes int64  `json:"budget_bytes"`
	UsedBytes   int64  `json:"used_bytes"`
	Admitted    int    `json:"admitted"`
	Queued      int    `json:"queued"`
	// Breaker state detail: current state, consecutive parallel failures
	// counted toward the trip threshold, lifetime trips, and — while
	// open — milliseconds until a half-open probe is admitted.
	Breaker                    string           `json:"breaker"`
	BreakerFailures            int              `json:"breaker_failures"`
	BreakerTrips               int              `json:"breaker_trips"`
	BreakerCooldownRemainingMS int64            `json:"breaker_cooldown_remaining_ms"`
	Degraded                   int64            `json:"degraded_solves"`
	Healed                     int64            `json:"healed_solves"`
	Outcomes                   map[string]int64 `json:"outcomes"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.reject(w, http.StatusMethodNotAllowed, 0, "healthz is GET-only")
		return
	}
	used, budget, active, queued := s.gate.snapshot()
	state, failures, trips := s.brk.snapshot()
	h := Health{
		Status:                     "ok",
		Inflight:                   s.active.Load(),
		BudgetBytes:                budget,
		UsedBytes:                  used,
		Admitted:                   active,
		Queued:                     queued,
		Breaker:                    state.String(),
		BreakerFailures:            failures,
		BreakerTrips:               trips,
		BreakerCooldownRemainingMS: s.brk.cooldownRemaining().Milliseconds(),
		Outcomes:                   map[string]int64{},
	}
	if s.draining.Load() {
		h.Status = "draining"
	}
	s.mu.Lock()
	h.Degraded = s.degraded
	h.Healed = s.healed
	for k, v := range s.outcomes {
		h.Outcomes[strconv.Itoa(k)] = v
	}
	s.mu.Unlock()
	// Health probes are not admission outcomes; write directly.
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(h); err != nil {
		s.cfg.logf("serve: writing healthz: %v", err)
	}
}
