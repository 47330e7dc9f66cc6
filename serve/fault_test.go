package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stsk"
	"stsk/internal/faultinject"
	"stsk/internal/panicsafe"
)

// withFaults enables the fault-injection plan for one test and restores
// a clean process on cleanup.
func withFaults(t *testing.T, spec string, seed uint64) {
	t.Helper()
	if err := faultinject.Enable(spec, seed); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Disable)
}

// quietRegistry builds a registry whose brownout controller never ticks
// on its own (its ticker halted), so tests drive the state machine by
// hand deterministically.
func quietRegistry(cfg Config) *Registry {
	reg := NewRegistry(cfg)
	reg.brown.tick.Stop()
	return reg
}

// TestRetryPolicyBackoff pins the jittered-exponential shape: attempt n
// backs off within [unit·2ⁿ⁻¹/2, unit·2ⁿ⁻¹] for a 500µs unit, capped at
// retryBackoffCap units.
func TestRetryPolicyBackoff(t *testing.T) {
	const unit = 500 * time.Microsecond
	if retryBackoffUnit != unit {
		t.Fatalf("retryBackoffUnit = %v, want %v", retryBackoffUnit, unit)
	}
	for attempt := 1; attempt <= 8; attempt++ {
		want := min(unit<<(attempt-1), retryBackoffCap*unit)
		for i := 0; i < 50; i++ {
			d := backoff(attempt)
			if d < want/2 || d > want {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, want/2, want)
			}
		}
	}
}

// TestSleepRetryHonorsDeadline: a backoff the deadline cannot afford is
// refused without sleeping, and a cancellation interrupts the sleep.
func TestSleepRetryHonorsDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	begin := time.Now()
	if sleepRetry(ctx, 50*time.Millisecond) {
		t.Fatal("sleepRetry slept past the context deadline budget")
	}
	if elapsed := time.Since(begin); elapsed > 20*time.Millisecond {
		t.Fatalf("deadline-refused sleep took %v, want immediate", elapsed)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() { time.Sleep(time.Millisecond); cancel2() }()
	if sleepRetry(ctx2, 10*time.Second) {
		t.Fatal("sleepRetry outlived its context cancellation")
	}
}

// TestSolveRetriesTransientSaturation: injected queue saturation on the
// first enqueue attempts is absorbed by the retry policy — the request
// still succeeds bitwise, and the retries are counted.
func TestSolveRetriesTransientSaturation(t *testing.T) {
	reg := quietRegistry(Config{})
	defer reg.Close()
	hp := buildHammerPlan(t, reg, "g3", "grid3d", 1000, 1)

	// Fire on the first two enqueue invocations only: attempt 1 and 2
	// bounce with ErrQueueFull, attempt 3 (of the default 3) succeeds.
	withFaults(t, "coalescer.enqueue:saturate:count=2", 1)
	x, err := reg.Solve(context.Background(), "g3", VariantDirect, false, hp.bs[0])
	if err != nil {
		t.Fatalf("solve should have survived 2 injected saturations: %v", err)
	}
	assertBitwise(t, x, hp.fwd[0], "post-retry solve")
	snap := reg.Metrics().Snapshot()
	if snap.Retries != 2 {
		t.Errorf("retries = %d, want 2", snap.Retries)
	}
	if snap.Rejected != 0 {
		t.Errorf("rejected = %d, want 0 (retries absorbed the saturation)", snap.Rejected)
	}
}

// TestSolveRetryExhaustion: saturation on every attempt exhausts the
// budget and surfaces ErrQueueFull (HTTP 429), counted as rejected.
func TestSolveRetryExhaustion(t *testing.T) {
	reg := quietRegistry(Config{})
	defer reg.Close()
	hp := buildHammerPlan(t, reg, "g3", "grid3d", 1000, 1)

	withFaults(t, "coalescer.enqueue:saturate", 1)
	_, err := reg.Solve(context.Background(), "g3", VariantDirect, false, hp.bs[0])
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull after exhausted retries", err)
	}
	snap := reg.Metrics().Snapshot()
	if snap.Rejected != 1 || snap.Retries != retryAttempts-1 {
		t.Errorf("rejected/retries = %d/%d, want 1/%d", snap.Rejected, snap.Retries, retryAttempts-1)
	}
}

// shortBudget is a context whose deadline is always budget away and
// never passes: however slow the host, a request carrying it reaches
// every retry decision with exactly budget left, and is never refused for
// a deadline that lapsed before it reached the queue.
type shortBudget struct {
	context.Context
	budget time.Duration
}

func (c shortBudget) Deadline() (time.Time, bool) { return time.Now().Add(c.budget), true }

// TestSolveRetryNeverOutlivesDeadline: with permanent saturation and a
// deadline shorter than the first backoff (at least retryBackoffUnit/2),
// the retry loop gives up at once instead of sleeping past the budget,
// and returns the original ErrQueueFull.
func TestSolveRetryNeverOutlivesDeadline(t *testing.T) {
	reg := quietRegistry(Config{})
	defer reg.Close()
	hp := buildHammerPlan(t, reg, "g3", "grid3d", 1000, 1)

	withFaults(t, "coalescer.enqueue:saturate", 1)
	ctx := shortBudget{Context: context.Background(), budget: retryBackoffUnit / 4}
	begin := time.Now()
	_, err := reg.Solve(ctx, "g3", VariantDirect, false, hp.bs[0])
	if elapsed := time.Since(begin); elapsed > 150*time.Millisecond {
		t.Fatalf("retry loop ran %v under a %v budget", elapsed, ctx.budget)
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want the original ErrQueueFull back", err)
	}
	if got := reg.Metrics().Snapshot().Retries; got != 0 {
		t.Errorf("retries = %d, want 0 (the first backoff outlives the budget)", got)
	}
}

// TestSolvePanicRecoveredEndToEnd: a kernel panic injected at the engine
// job boundary surfaces as a contained ErrInternal (HTTP 500), bumps the
// panics-recovered counter, and leaves the plan serving bitwise-correct
// solutions afterwards.
func TestSolvePanicRecoveredEndToEnd(t *testing.T) {
	reg := quietRegistry(Config{})
	defer reg.Close()
	hp := buildHammerPlan(t, reg, "g3", "grid3d", 1000, 1)

	withFaults(t, "engine.job:panic:count=1", 1)
	_, err := reg.Solve(context.Background(), "g3", VariantDirect, false, hp.bs[0])
	if !errors.Is(err, panicsafe.ErrInternal) {
		t.Fatalf("err = %v, want a contained ErrInternal", err)
	}
	if stack := panicsafe.Stack(err); len(stack) == 0 {
		t.Error("contained panic lost its stack trace")
	}
	faultinject.Disable()

	x, err := reg.Solve(context.Background(), "g3", VariantDirect, false, hp.bs[0])
	if err != nil {
		t.Fatalf("post-panic solve: %v", err)
	}
	assertBitwise(t, x, hp.fwd[0], "post-panic solve")
	snap := reg.Metrics().Snapshot()
	if snap.PanicsRecovered != 1 {
		t.Errorf("panics recovered = %d, want 1", snap.PanicsRecovered)
	}
	if snap.Failed != 1 {
		t.Errorf("failed = %d, want 1", snap.Failed)
	}

	// A panic while building a plan is contained the same way and frees
	// the plan's name: the next Register of the same spec builds, and
	// serves bitwise.
	withFaults(t, "registry.build:panic:count=1", 1)
	spec := PlanSpec{Name: "tm", Class: "trimesh", N: 800}
	if _, err := reg.Register(spec); !errors.Is(err, panicsafe.ErrInternal) {
		t.Fatalf("panicking build: err = %v, want a contained ErrInternal", err)
	}
	faultinject.Disable()
	if _, err := reg.Register(spec); err != nil {
		t.Fatalf("register after a panicked build: %v", err)
	}
	ref := refPlan(t, "trimesh", 800, stsk.STS3)
	b := manufacturedRHS(ref, 1)
	want, err := ref.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	x, err = reg.Solve(context.Background(), "tm", VariantDirect, false, b)
	if err != nil {
		t.Fatalf("solve after a panicked build: %v", err)
	}
	assertBitwise(t, x, want, "solve after a panicked build")
}

// TestBrownoutStateMachine drives the controller's evaluate by hand:
// a latency spike degrades, degraded mode sheds low-priority requests
// and refuses cold builds but still re-derives a resident plan's IC(0)
// factor, and recoverTicks calm evaluations heal everything back.
func TestBrownoutStateMachine(t *testing.T) {
	reg := quietRegistry(Config{})
	defer reg.Close()
	hp := buildHammerPlan(t, reg, "resident", "grid3d", 800, 1)
	// Factor IC(0) now, so the degraded value update below leaves it stale.
	if _, err := reg.Solve(context.Background(), "resident", VariantIC0, false, hp.bs[0]); err != nil {
		t.Fatal(err)
	}

	if st, _ := reg.BrownoutState(); st != BrownoutHealthy {
		t.Fatalf("fresh registry state = %v, want healthy", st)
	}
	if err := reg.AdmitPriority(0); err != nil {
		t.Fatalf("healthy registry shed a request: %v", err)
	}

	// A window where most solves breach degradeLatency trips the
	// controller on its next tick.
	for i := 0; i < 8; i++ {
		reg.met.ObserveLatency(2 * degradeLatency)
	}
	reg.brown.evaluate()
	st, reason := reg.BrownoutState()
	if st != BrownoutDegraded {
		t.Fatalf("state after latency spike = %v, want degraded", st)
	}
	if !strings.Contains(reason, "latency") {
		t.Errorf("degrade reason = %q, want a latency reason", reason)
	}

	// Degraded: default threshold sheds only priority < 1.
	if err := reg.AdmitPriority(0); !errors.Is(err, ErrShed) {
		t.Fatalf("priority-0 admit while degraded: %v, want ErrShed", err)
	}
	if err := reg.AdmitPriority(1); err != nil {
		t.Fatalf("priority-1 admit while degraded: %v, want admitted", err)
	}

	// Degraded: cold plan builds are refused, resident plans still serve.
	if _, err := reg.Register(PlanSpec{Name: "cold", Class: "trimesh", N: 500}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("cold build while degraded: %v, want ErrDegraded", err)
	}
	x, err := reg.Solve(context.Background(), "resident", VariantDirect, false, hp.bs[0])
	if err != nil {
		t.Fatalf("resident solve while degraded: %v", err)
	}
	assertBitwise(t, x, hp.fwd[0], "degraded resident solve")

	// Degraded: a value update leaves the IC(0) factor stale, and its
	// re-derivation is not a cold build — the resident plan's factor
	// serves the new values.
	vals := scaledValues(t, "grid3d", 800, 2)
	if _, err := reg.UpdateValues("resident", vals, 0); err != nil {
		t.Fatalf("value update while degraded: %v", err)
	}
	ref := refPlan(t, "grid3d", 800, stsk.STS3)
	if err := ref.Refactor(vals); err != nil {
		t.Fatal(err)
	}
	fref, err := ref.IC0()
	if err != nil {
		t.Fatal(err)
	}
	want, err := fref.Solve(hp.bs[0])
	if err != nil {
		t.Fatal(err)
	}
	x, err = reg.Solve(context.Background(), "resident", VariantIC0, false, hp.bs[0])
	if err != nil {
		t.Fatalf("ic0 solve after update while degraded: %v", err)
	}
	assertBitwise(t, x, want, "degraded ic0 solve at the new values")

	// Hysteresis: fewer than recoverTicks calm evaluations do not heal.
	for i := 1; i < recoverTicks; i++ {
		reg.brown.evaluate()
	}
	if st, _ := reg.BrownoutState(); st != BrownoutDegraded {
		t.Fatal("healed before recoverTicks calm evaluations")
	}
	reg.brown.evaluate()
	if st, _ := reg.BrownoutState(); st != BrownoutHealthy {
		t.Fatalf("state after %d calm ticks = %v, want healthy", recoverTicks, st)
	}
	if _, err := reg.Register(PlanSpec{Name: "cold", Class: "trimesh", N: 500}); err != nil {
		t.Fatalf("cold build after heal: %v", err)
	}

	snap := reg.Metrics().Snapshot()
	if snap.Shed != 1 {
		t.Errorf("shed = %d, want 1", snap.Shed)
	}
}

// TestBrownoutQueuePressure: evaluate degrades on queue depth too, with
// the reason naming the queue. The pressure gauge is read off unstarted
// coalescers (no dispatcher to race) wired straight into the registry.
func TestBrownoutQueuePressure(t *testing.T) {
	reg := quietRegistry(Config{QueueCap: 4})
	defer reg.Close()
	ref := refPlan(t, "grid3d", 500, stsk.STS3)
	solver := ref.NewSolver()
	st := &state{
		plan:   ref,
		solver: solver,
		lower:  newCoalescer(solver, false, 4, reg.met),
		upper:  newCoalescer(solver, true, 4, reg.met),
	}
	reg.mu.Lock()
	reg.entries["fake"] = &entry{spec: PlanSpec{Name: "fake"}, st: st}
	reg.mu.Unlock()

	// 7 of the 8 summed slots (2 coalescers × cap 4) → frac 0.875 ≥ 0.75.
	for i := 0; i < 4; i++ {
		st.lower.queue <- &solveReq{ctx: context.Background(), done: make(chan error, 1)}
	}
	for i := 0; i < 3; i++ {
		st.upper.queue <- &solveReq{ctx: context.Background(), done: make(chan error, 1)}
	}
	reg.brown.evaluate()
	bst, reason := reg.BrownoutState()
	if bst != BrownoutDegraded || !strings.Contains(reason, "queue") {
		t.Fatalf("state/reason = %v/%q, want degraded on queue depth", bst, reason)
	}
}

// TestServerFaultSurface drives the transport-layer fault contract over
// HTTP: Retry-After headers and retryAfterMs on retriable refusals,
// X-STS-Priority shedding, the degraded and draining /healthz documents,
// and the 500 mapping for contained panics.
func TestServerFaultSurface(t *testing.T) {
	reg := quietRegistry(Config{})
	srv := NewServer(reg)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	hp := buildHammerPlan(t, reg, "g3", "grid3d", 900, 1)

	solveBody := SolveRequest{Plan: "g3", B: hp.bs[0]}
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, out
	}

	// Healthy: 200 ok, no reason.
	resp, body := get("/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthy /healthz: %d %s", resp.StatusCode, body)
	}

	// Contained panic → 500, metric visible at /metrics.
	withFaults(t, "engine.job:panic:count=1", 1)
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/solve", solveBody)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked solve: %d %s, want 500", resp.StatusCode, body)
	}
	faultinject.Disable()
	resp, body = get("/metrics")
	if !strings.Contains(string(body), "stsserve_panics_recovered_total 1") {
		t.Errorf("metrics missing recovered panic: %d %s", resp.StatusCode, body)
	}

	// Degraded: /healthz 503 "degraded" with reason; unprioritized solve
	// shed with 429 + Retry-After; prioritized solve passes bitwise.
	reg.brown.degrade("latency over threshold")
	resp, body = get("/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable ||
		!strings.Contains(string(body), `"degraded"`) ||
		!strings.Contains(string(body), "latency over threshold") {
		t.Fatalf("degraded /healthz: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/solve", solveBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed solve: %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Errorf("shed Retry-After = %q, want \"1\"", resp.Header.Get("Retry-After"))
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.RetryAfterMs != 1000 {
		t.Errorf("shed retryAfterMs = %d (err %v), want 1000", eb.RetryAfterMs, err)
	}

	raw, _ := json.Marshal(solveBody)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", strings.NewReader(string(raw)))
	req.Header.Set("X-STS-Priority", "3")
	presp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sr SolveResponse
	if err := json.NewDecoder(presp.Body).Decode(&sr); err != nil || presp.StatusCode != http.StatusOK {
		t.Fatalf("prioritized solve: %d (%v)", presp.StatusCode, err)
	}
	presp.Body.Close()
	assertBitwise(t, sr.X, hp.fwd[0], "prioritized degraded solve")
	reg.brown.heal()

	// Draining via BeginDrain: health 503 "draining", solve 503 with the
	// 2s Retry-After, yet the registry stays open underneath.
	srv.BeginDrain()
	resp, body = get("/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), `"draining"`) {
		t.Fatalf("draining /healthz: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/solve", solveBody)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "2" {
		t.Fatalf("draining solve: %d Retry-After=%q %s, want 503/2", resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if reg.Draining() {
		t.Fatal("BeginDrain closed the registry — it must only mark the transport")
	}
}

// TestHealthzReportsRegistryClosed pins the fixed blind spot: a registry
// closed out from under the server (embedder-driven shutdown) must turn
// /healthz into a draining 503 even though the server itself was never
// told to drain.
func TestHealthzReportsRegistryClosed(t *testing.T) {
	reg := quietRegistry(Config{})
	srv := NewServer(reg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	reg.Close()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hb healthBody
	if err := json.NewDecoder(resp.Body).Decode(&hb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || hb.Status != "draining" {
		t.Fatalf("/healthz after registry close: %d %+v, want 503 draining", resp.StatusCode, hb)
	}
	if hb.Reason == "" {
		t.Error("registry-closed health report lost its reason")
	}
}
