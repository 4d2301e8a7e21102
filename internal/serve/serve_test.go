package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cellnpdp"
)

// post sends a SolveRequest to the test server and decodes the outcome.
func post(t *testing.T, ts *httptest.Server, req SolveRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func decodeSolve(t *testing.T, body []byte) SolveResponse {
	t.Helper()
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("decoding response %q: %v", body, err)
	}
	return sr
}

func TestSolveHappyPathWithIntegrity(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := SolveRequest{N: 96, Engine: "tiled", Seed: 3}
	resp, body := post(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	sr := decodeSolve(t, body)
	if sr.N != 96 || sr.Engine != "tiled" || sr.Precision != "single" {
		t.Fatalf("response header fields wrong: %+v", sr)
	}
	if sr.Degraded {
		t.Fatalf("tiled solve reported degraded: %+v", sr)
	}
	if sr.Relaxations <= 0 || sr.Cost <= 0 || sr.FootprintBytes <= 0 {
		t.Fatalf("implausible solve stats: %+v", sr)
	}
	if !sr.Integrity.CRCOK || !sr.Integrity.ResidualOK || sr.Integrity.CellsSampled <= 0 || sr.Integrity.Bands <= 0 {
		t.Fatalf("integrity report incomplete: %+v", sr.Integrity)
	}

	// Determinism: same seed, same answer and same checksum; the parallel
	// engine agrees bit for bit.
	resp2, body2 := post(t, ts, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat status = %d", resp2.StatusCode)
	}
	sr2 := decodeSolve(t, body2)
	if sr2.Cost != sr.Cost || sr2.Integrity.CRC32C != sr.Integrity.CRC32C {
		t.Fatalf("repeat solve differs: %v/%s vs %v/%s", sr.Cost, sr.Integrity.CRC32C, sr2.Cost, sr2.Integrity.CRC32C)
	}
	resp3, body3 := post(t, ts, SolveRequest{N: 96, Engine: "parallel", Seed: 3})
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("parallel status = %d, body %s", resp3.StatusCode, body3)
	}
	if sr3 := decodeSolve(t, body3); sr3.Integrity.CRC32C != sr.Integrity.CRC32C {
		t.Fatalf("parallel checksum %s != tiled %s", sr3.Integrity.CRC32C, sr.Integrity.CRC32C)
	}

	if got := s.Outcomes()[200]; got != 3 {
		t.Fatalf("outcome count for 200 = %d, want 3", got)
	}
}

func TestSolveDoublePrecision(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := post(t, ts, SolveRequest{N: 64, Precision: "double", Engine: "tiled"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if sr := decodeSolve(t, body); sr.Precision != "double" || sr.Cost <= 0 {
		t.Fatalf("double solve response: %+v", sr)
	}
}

// The response's crc32c is what clients verify, so it is pinned at both
// precisions to the per-cell digest's values for the seed-3 chain
// instances.
func TestSolveResponseCRCKnownAnswers(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, c := range []struct {
		precision string
		n, bands  int
		crc       string
	}{
		{"single", 64, 1, "80d6f752"},
		{"single", 200, 4, "59dbb673"},
		{"double", 64, 1, "0350fa75"},
		{"double", 200, 4, "43484267"},
	} {
		resp, body := post(t, ts, SolveRequest{N: c.n, Precision: c.precision, Seed: 3})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s n=%d: status = %d, body %s", c.precision, c.n, resp.StatusCode, body)
		}
		if sr := decodeSolve(t, body); sr.Integrity.CRC32C != c.crc || sr.Integrity.Bands != c.bands {
			t.Fatalf("%s n=%d: crc32c %s over %d bands, want %s over %d", c.precision, c.n,
				sr.Integrity.CRC32C, sr.Integrity.Bands, c.crc, c.bands)
		}
	}
}

func TestSolveBadRequests(t *testing.T) {
	s := New(Config{MaxN: 512})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cases := []SolveRequest{
		{N: 1},
		{N: 1024},                  // beyond MaxN
		{N: 64, Precision: "half"}, // bad precision
		{N: 64, Engine: "cell"},    // engine not served
		{N: 64, FaultRate: 1.5},    // bad fault rate
		{N: 64, DeadlineMS: -5},    // negative deadline
	}
	for _, req := range cases {
		resp, body := post(t, ts, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("request %+v: status = %d (%s), want 400", req, resp.StatusCode, body)
		}
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status = %d, want 400", resp.StatusCode)
	}
	// Wrong method.
	resp, err = http.Get(ts.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /solve: status = %d, want 405", resp.StatusCode)
	}
}

func TestSolveTooLargeForBudget(t *testing.T) {
	s := New(Config{BudgetBytes: 4096})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := post(t, ts, SolveRequest{N: 256, Engine: "tiled"})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d (%s), want 413", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != "" {
		t.Fatal("413 must not carry Retry-After: retrying can never help")
	}
}

func TestSolveRateLimited(t *testing.T) {
	clk := newFakeClock()
	s := New(Config{RatePerSec: 1, Burst: 1, Clock: clk.now})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := post(t, ts, SolveRequest{N: 32, Engine: "tiled"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d (%s)", resp.StatusCode, body)
	}
	resp, body = post(t, ts, SolveRequest{N: 32, Engine: "tiled"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After header")
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.RetryAfterSeconds <= 0 {
		t.Fatalf("429 body %s lacks retry_after_seconds", body)
	}
	// Refill restores admission.
	clk.advance(time.Second)
	resp, body = post(t, ts, SolveRequest{N: 32, Engine: "tiled"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after refill: %d (%s)", resp.StatusCode, body)
	}
}

func TestSolveQueueFullRejects(t *testing.T) {
	s := New(Config{BudgetBytes: 1 << 20, QueueDepth: -1}) // no queue
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Hold the entire budget so the request cannot be admitted.
	_, release := s.gate.acquire(context.Background(), 1<<20)
	defer release()
	resp, body := post(t, ts, SolveRequest{N: 32, Engine: "tiled"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d (%s), want 429 queue-full", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("queue-full 429 missing Retry-After")
	}
}

func TestSolveDeadlineShed(t *testing.T) {
	// PredictFactor inflates the model prediction so every deadline is
	// hopeless — the request must shed before consuming budget.
	s := New(Config{PredictFactor: 1e9})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := post(t, ts, SolveRequest{N: 64, Engine: "tiled", DeadlineMS: 50})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503 shed", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "predicted") {
		t.Fatalf("shed body does not explain the prediction: %s", body)
	}
}

func TestSolveTimesOutMidSolve(t *testing.T) {
	// PredictFactor near zero lets the hopeless deadline through the
	// shedding gate; the context deadline then fires mid-solve.
	s := New(Config{PredictFactor: 1e-12})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := post(t, ts, SolveRequest{N: 2048, Engine: "tiled", DeadlineMS: 1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503 timeout", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Fatalf("timeout body does not mention the deadline: %s", body)
	}
}

func TestSolveDrainRejects(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Drain()
	resp, body := post(t, ts, SolveRequest{N: 32, Engine: "tiled"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503 while draining", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "draining") {
		t.Fatalf("drain body: %s", body)
	}
	s.Wait() // must not hang with nothing in flight
	if !s.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
}

func TestSolveCorruptionBetweenDigestAndSerializeIs500(t *testing.T) {
	s := New(Config{})
	s.corruptAfterDigest = func(table any) {
		if tb, ok := table.(*cellnpdp.Table[float32]); ok {
			v, _ := tb.At(0, 5)
			tb.Set(0, 5, v+1)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := post(t, ts, SolveRequest{N: 64, Engine: "tiled"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d (%s), want 500 for corrupted result", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "corrupted before serialization") {
		t.Fatalf("500 body does not name the corruption: %s", body)
	}
	if !strings.Contains(string(body), "CRC32C mismatch") {
		t.Fatalf("500 body does not localize the CRC mismatch: %s", body)
	}
}

// TestSolveHealAndRetryRecovers drives the serving layer's one-shot
// heal-and-retry: a result corrupted once between digest and serialize
// is discarded, re-solved in-process, and served as a 200 flagged
// Healed — the client never sees the torn bytes.
func TestSolveHealAndRetryRecovers(t *testing.T) {
	s := New(Config{})
	corruptions := 0
	s.corruptAfterDigest = func(table any) {
		if corruptions > 0 {
			return // only the first attempt is torn
		}
		corruptions++
		if tb, ok := table.(*cellnpdp.Table[float32]); ok {
			v, _ := tb.At(0, 5)
			tb.Set(0, 5, v+1)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := post(t, ts, SolveRequest{N: 64, Engine: "tiled"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s), want 200 after heal-and-retry", resp.StatusCode, body)
	}
	sr := decodeSolve(t, body)
	if !sr.Healed {
		t.Fatalf("recovered response not flagged healed: %+v", sr)
	}
	if !sr.Integrity.CRCOK || !sr.Integrity.ResidualOK {
		t.Fatalf("healed response failed integrity: %+v", sr.Integrity)
	}
	// A clean repeat must not be flagged.
	resp, body = post(t, ts, SolveRequest{N: 64, Engine: "tiled"})
	if resp.StatusCode != http.StatusOK || decodeSolve(t, body).Healed {
		t.Fatalf("clean solve flagged healed: %d (%s)", resp.StatusCode, body)
	}
	// And /healthz counts exactly the one recovery.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h Health
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Healed != 1 {
		t.Fatalf("healthz healed_solves = %d, want 1", h.Healed)
	}
}

// TestSolveEngineHealEndToEnd requests silent corruption plus healing
// through the HTTP surface: the engine's sealing layer repairs the solve
// and its counters reach the response.
func TestSolveEngineHealEndToEnd(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := post(t, ts, SolveRequest{
		N: 128, Engine: "parallel", Seed: 3,
		FaultRate: 0.5, FaultSeed: 4, FaultKinds: "corrupt", Heal: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s), want 200", resp.StatusCode, body)
	}
	sr := decodeSolve(t, body)
	if sr.Degraded {
		t.Fatalf("healed solve degraded: %+v", sr)
	}
	if sr.CorruptBlocks == 0 || sr.HealRounds == 0 {
		t.Fatalf("rate-0.5 corruption run reports no heal work: %+v", sr)
	}
	// The healed answer matches an uninjected solve of the same instance.
	resp2, body2 := post(t, ts, SolveRequest{N: 128, Engine: "tiled", Seed: 3})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("reference solve: %d (%s)", resp2.StatusCode, body2)
	}
	if ref := decodeSolve(t, body2); ref.Integrity.CRC32C != sr.Integrity.CRC32C {
		t.Fatalf("healed checksum %s != reference %s", sr.Integrity.CRC32C, ref.Integrity.CRC32C)
	}
}

// TestSolveBadFaultKindsIs400 asserts the fault_kinds validation runs at
// admission, before any budget is consumed.
func TestSolveBadFaultKindsIs400(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := post(t, ts, SolveRequest{N: 64, Engine: "tiled", FaultKinds: "corrupt,bogus"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d (%s), want 400", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "bogus") {
		t.Fatalf("400 body does not name the bad kind: %s", body)
	}
}

// TestDeadlineShedCarriesRetryAfter asserts both deadline sheds advertise
// when retrying could land differently, like the 429s do.
func TestDeadlineShedCarriesRetryAfter(t *testing.T) {
	s := New(Config{PredictFactor: 1e9})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := post(t, ts, SolveRequest{N: 64, Engine: "tiled", DeadlineMS: 50})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503 shed", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("deadline shed missing Retry-After header (body %s)", body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.RetryAfterSeconds <= 0 {
		t.Fatalf("shed body %s lacks retry_after_seconds", body)
	}
}

// TestHealthzBreakerDetail asserts /healthz exposes the breaker's
// failure count and, while open, the remaining cooldown.
func TestHealthzBreakerDetail(t *testing.T) {
	clk := newFakeClock()
	s := New(Config{MaxRetries: -1, BreakerThreshold: 1, BreakerCooldown: time.Minute, Clock: clk.now})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	readHealth := func() Health {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	if h := readHealth(); h.Breaker != "closed" || h.BreakerFailures != 0 || h.BreakerCooldownRemainingMS != 0 {
		t.Fatalf("fresh breaker detail = %+v", h)
	}
	post(t, ts, SolveRequest{N: 64, Engine: "parallel", FaultRate: 0.999, FaultSeed: 1})
	h := readHealth()
	if h.Breaker != "open" || h.BreakerTrips != 1 || h.BreakerFailures == 0 {
		t.Fatalf("tripped breaker detail = %+v", h)
	}
	if h.BreakerCooldownRemainingMS <= 0 || h.BreakerCooldownRemainingMS > time.Minute.Milliseconds() {
		t.Fatalf("cooldown remaining = %dms, want (0, 60000]", h.BreakerCooldownRemainingMS)
	}
	clk.advance(30 * time.Second)
	if h2 := readHealth(); h2.BreakerCooldownRemainingMS >= h.BreakerCooldownRemainingMS {
		t.Fatalf("cooldown did not shrink: %d then %d", h.BreakerCooldownRemainingMS, h2.BreakerCooldownRemainingMS)
	}
}

func TestBreakerDegradesServiceWide(t *testing.T) {
	// FaultRate ~1 with no retries makes every parallel attempt fail;
	// threshold 1 trips the breaker on the first degraded solve.
	s := New(Config{MaxRetries: -1, BreakerThreshold: 1, BreakerCooldown: time.Hour})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := post(t, ts, SolveRequest{N: 64, Engine: "parallel", FaultRate: 0.999, FaultSeed: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("faulted solve: %d (%s)", resp.StatusCode, body)
	}
	sr := decodeSolve(t, body)
	if !sr.Degraded || sr.DegradedReason == "" {
		t.Fatalf("faulted parallel solve not reported degraded: %+v", sr)
	}
	if state, _, trips := s.brk.snapshot(); state != BreakerOpen || trips != 1 {
		t.Fatalf("breaker = %v with %d trips after degraded solve, want open with 1", state, trips)
	}

	// Service-wide: the NEXT auto request never touches the parallel
	// engine (no fault injection requested, yet it still runs tiled).
	resp, body = post(t, ts, SolveRequest{N: 64, Engine: "auto"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bypassed solve: %d (%s)", resp.StatusCode, body)
	}
	sr = decodeSolve(t, body)
	if !sr.Degraded || !strings.Contains(sr.DegradedReason, "circuit breaker") {
		t.Fatalf("open breaker did not reroute: %+v", sr)
	}
	if sr.Engine != "tiled" {
		t.Fatalf("bypassed solve ran %s, want tiled", sr.Engine)
	}

	// Explicit tiled requests are untouched by the breaker.
	resp, body = post(t, ts, SolveRequest{N: 64, Engine: "tiled"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tiled during open breaker: %d (%s)", resp.StatusCode, body)
	}
}

func TestBreakerProbeRestoresParallel(t *testing.T) {
	clk := newFakeClock()
	s := New(Config{MaxRetries: -1, BreakerThreshold: 1, BreakerCooldown: time.Minute, Clock: clk.now})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post(t, ts, SolveRequest{N: 64, Engine: "parallel", FaultRate: 0.999, FaultSeed: 1})
	if state, _, _ := s.brk.snapshot(); state != BreakerOpen {
		t.Fatalf("breaker = %v, want open", state)
	}
	clk.advance(time.Minute)
	// Healthy probe closes the circuit.
	resp, body := post(t, ts, SolveRequest{N: 64, Engine: "parallel"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe solve: %d (%s)", resp.StatusCode, body)
	}
	if sr := decodeSolve(t, body); sr.Degraded || sr.Engine != "parallel" {
		t.Fatalf("probe did not run parallel cleanly: %+v", sr)
	}
	if state, _, _ := s.brk.snapshot(); state != BreakerClosed {
		t.Fatalf("breaker = %v after healthy probe, want closed", state)
	}
}

func TestHealthz(t *testing.T) {
	s := New(Config{BudgetBytes: 123456})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post(t, ts, SolveRequest{N: 32, Engine: "tiled"})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.BudgetBytes != 123456 || h.Breaker != "closed" {
		t.Fatalf("healthz = %+v", h)
	}
	if h.Outcomes["200"] != 1 {
		t.Fatalf("healthz outcomes = %v, want one 200", h.Outcomes)
	}
	s.Drain()
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Fatalf("healthz status = %q while draining", h.Status)
	}
}

func TestOutcomeSummaryFormat(t *testing.T) {
	s := New(Config{})
	if got := s.OutcomeSummary(); got != "none" {
		t.Fatalf("empty summary = %q, want none", got)
	}
	s.recordOutcome(503)
	s.recordOutcome(200)
	s.recordOutcome(200)
	if got := s.OutcomeSummary(); got != "200=2 503=1" {
		t.Fatalf("summary = %q, want %q", got, "200=2 503=1")
	}
}

func TestEstimateMatchesServedFootprint(t *testing.T) {
	// The footprint the server gates on is the public EstimateSolve —
	// pin that the two stay in sync.
	est, err := cellnpdp.EstimateSolve[float32](96, cellnpdp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := post(t, ts, SolveRequest{N: 96, Engine: "tiled"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp.StatusCode, body)
	}
	if sr := decodeSolve(t, body); sr.FootprintBytes != est.FootprintBytes {
		t.Fatalf("served footprint %d != EstimateSolve %d", sr.FootprintBytes, est.FootprintBytes)
	}
}

// TestDrainWaitsForInflight drives the full lifecycle: a slow solve is
// admitted, Drain begins mid-flight, new work is rejected, and Wait
// returns only after the slow solve completed with a 200.
func TestDrainWaitsForInflight(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type outcome struct {
		code int
		body string
	}
	slow := make(chan outcome, 1)
	go func() {
		body, _ := json.Marshal(SolveRequest{N: 1024, Engine: "tiled"})
		resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			slow <- outcome{0, err.Error()}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		slow <- outcome{resp.StatusCode, buf.String()}
	}()
	// Wait until the slow request is actually in flight.
	deadline := time.Now().Add(10 * time.Second)
	for s.active.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	s.Drain()
	resp, _ := post(t, ts, SolveRequest{N: 32, Engine: "tiled"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: %d, want 503", resp.StatusCode)
	}
	done := make(chan struct{})
	go func() { s.Wait(); close(done) }()
	select {
	case got := <-slow:
		if got.code != http.StatusOK {
			t.Fatalf("in-flight solve during drain: %d (%s)", got.code, got.body)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("in-flight solve never finished")
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Wait did not return after in-flight work finished")
	}
	if got := s.Outcomes(); got[200] != 1 || got[503] != 1 {
		t.Fatalf("outcomes = %v, want one 200 and one 503", got)
	}
}
