package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeReplica is a scripted stsserve backend for router tests.
type fakeReplica struct {
	srv      *httptest.Server
	solves   atomic.Int64
	plans    atomic.Int64
	values   atomic.Int64
	priority atomic.Value // last X-STS-Priority seen on /v1/solve
	delay    time.Duration
	status   int // response code for /v1/solve (default 200)
	healthy  atomic.Bool
}

func newFakeReplica(t *testing.T, tag string, delay time.Duration, status int) *fakeReplica {
	t.Helper()
	f := &fakeReplica{delay: delay, status: status}
	f.healthy.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) {
		f.solves.Add(1)
		f.priority.Store(r.Header.Get("X-STS-Priority"))
		if f.delay > 0 {
			select {
			case <-time.After(f.delay):
			case <-r.Context().Done():
				return
			}
		}
		if f.status != 0 && f.status != http.StatusOK {
			http.Error(w, "scripted failure", f.status)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"x":[1],"replica":%q}`, tag)
	})
	mux.HandleFunc("POST /v1/plans", func(w http.ResponseWriter, r *http.Request) {
		f.plans.Add(1)
		w.WriteHeader(http.StatusCreated)
		fmt.Fprintf(w, `{"name":"ok"}`)
	})
	mux.HandleFunc("PUT /v1/plans/{name}/values", func(w http.ResponseWriter, r *http.Request) {
		f.values.Add(1)
		fmt.Fprintf(w, `{"version":2}`)
	})
	mux.HandleFunc("GET /v1/plans", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"plans":[],"replica":%q}`, tag)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if !f.healthy.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func newTestRouter(t *testing.T, cfg RouterConfig) *Router {
	t.Helper()
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func routerSolve(t *testing.T, rt *Router, plan string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	body := strings.NewReader(fmt.Sprintf(`{"plan":%q,"b":[1]}`, plan))
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", body)
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	return w
}

// TestRouterFailover kills one replica outright: every solve must still
// answer 200 from the survivor — the router never surfaces a 5xx of its
// own while any replica can serve.
func TestRouterFailover(t *testing.T) {
	alive := newFakeReplica(t, "alive", 0, 0)
	dead := newFakeReplica(t, "dead", 0, 0)
	dead.srv.Close() // transport-level death, no graceful drain

	rt := newTestRouter(t, RouterConfig{
		Backends:       []string{alive.srv.URL, dead.srv.URL},
		HealthInterval: time.Hour, // passive ejection only
		HedgeAfter:     -1,
	})
	for i := 0; i < 20; i++ {
		w := routerSolve(t, rt, fmt.Sprintf("plan-%d", i), nil)
		if w.Code != http.StatusOK {
			t.Fatalf("solve %d: status %d, body %s", i, w.Code, w.Body.String())
		}
	}
	if rt.Metrics().Ejections.Load() < 1 {
		t.Fatal("dead replica never ejected passively")
	}
	// After ejection the dead replica is deprioritized: failovers stop.
	before := rt.Metrics().Failovers.Load()
	for i := 0; i < 10; i++ {
		if w := routerSolve(t, rt, fmt.Sprintf("plan-%d", i), nil); w.Code != http.StatusOK {
			t.Fatalf("post-ejection solve %d: status %d", i, w.Code)
		}
	}
	if after := rt.Metrics().Failovers.Load(); after != before {
		t.Fatalf("failovers kept climbing after ejection: %d -> %d", before, after)
	}
}

// TestRouterAllDead exhausts every replica: the router answers 502 (bad
// gateway), never a 500 of its own.
func TestRouterAllDead(t *testing.T) {
	a := newFakeReplica(t, "a", 0, 0)
	b := newFakeReplica(t, "b", 0, 0)
	a.srv.Close()
	b.srv.Close()
	rt := newTestRouter(t, RouterConfig{
		Backends:       []string{a.srv.URL, b.srv.URL},
		HealthInterval: time.Hour,
		HedgeAfter:     -1,
	})
	w := routerSolve(t, rt, "p", nil)
	if w.Code != http.StatusBadGateway {
		t.Fatalf("all-dead status = %d, want 502", w.Code)
	}
}

// TestRouterRelays4xx confirms client errors pass through verbatim
// instead of triggering failover — a bad request fails identically on
// every replica.
func TestRouterRelays4xx(t *testing.T) {
	a := newFakeReplica(t, "a", 0, http.StatusNotFound)
	b := newFakeReplica(t, "b", 0, http.StatusNotFound)
	rt := newTestRouter(t, RouterConfig{
		Backends:       []string{a.srv.URL, b.srv.URL},
		HealthInterval: time.Hour,
		HedgeAfter:     -1,
	})
	w := routerSolve(t, rt, "p", nil)
	if w.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want the replica's 404", w.Code)
	}
	if a.solves.Load()+b.solves.Load() != 1 {
		t.Fatalf("4xx caused failover: %d+%d attempts", a.solves.Load(), b.solves.Load())
	}
}

// TestRouterHedging pins a plan to a slow replica: after HedgeAfter the
// router launches the same solve on the next replica and relays
// whichever answers first.
func TestRouterHedging(t *testing.T) {
	slow := newFakeReplica(t, "slow", 300*time.Millisecond, 0)
	fast := newFakeReplica(t, "fast", 0, 0)
	rt := newTestRouter(t, RouterConfig{
		Backends:       []string{slow.srv.URL, fast.srv.URL},
		HealthInterval: time.Hour,
		HedgeAfter:     10 * time.Millisecond,
	})
	// Find a plan name the ring routes to the slow replica first.
	plan := ""
	for i := 0; i < 256; i++ {
		name := fmt.Sprintf("pin-%d", i)
		if rt.backs[rt.candidates(name)[0]].base == strings.TrimRight(slow.srv.URL, "/") {
			plan = name
			break
		}
	}
	if plan == "" {
		t.Fatal("no plan hashes to the slow replica")
	}
	start := time.Now()
	w := routerSolve(t, rt, plan, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var resp struct {
		Replica string `json:"replica"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Replica != "fast" {
		t.Fatalf("hedge lost: answered by %q", resp.Replica)
	}
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Fatalf("hedged solve took %v, slower than the slow replica", d)
	}
	if rt.Metrics().Hedges.Load() < 1 {
		t.Fatal("hedge not counted")
	}
}

// TestRouterPriorityPassthrough: X-STS-Priority reaches the replica so
// brownout shedding composes through the router.
func TestRouterPriorityPassthrough(t *testing.T) {
	a := newFakeReplica(t, "a", 0, 0)
	rt := newTestRouter(t, RouterConfig{
		Backends:       []string{a.srv.URL},
		HealthInterval: time.Hour,
		HedgeAfter:     -1,
	})
	w := routerSolve(t, rt, "p", map[string]string{"X-STS-Priority": "high"})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if got, _ := a.priority.Load().(string); got != "high" {
		t.Fatalf("replica saw priority %q, want %q", got, "high")
	}
}

// TestRouterBroadcast: registrations and value updates fan out to every
// healthy replica.
func TestRouterBroadcast(t *testing.T) {
	a := newFakeReplica(t, "a", 0, 0)
	b := newFakeReplica(t, "b", 0, 0)
	rt := newTestRouter(t, RouterConfig{
		Backends:       []string{a.srv.URL, b.srv.URL},
		HealthInterval: time.Hour,
		HedgeAfter:     -1,
	})
	req := httptest.NewRequest(http.MethodPost, "/v1/plans", strings.NewReader(`{"name":"g"}`))
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	if w.Code != http.StatusCreated {
		t.Fatalf("register status %d", w.Code)
	}
	if a.plans.Load() != 1 || b.plans.Load() != 1 {
		t.Fatalf("registration reached %d/%d replicas, want 1/1", a.plans.Load(), b.plans.Load())
	}
	req = httptest.NewRequest(http.MethodPut, "/v1/plans/g/values", strings.NewReader(`{"values":[1]}`))
	w = httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("values status %d", w.Code)
	}
	if a.values.Load() != 1 || b.values.Load() != 1 {
		t.Fatalf("values reached %d/%d replicas, want 1/1", a.values.Load(), b.values.Load())
	}
}

// TestRouterHealthEjection drives the prober: a replica turning
// unhealthy is ejected within a probe interval and revived when it
// recovers; the router's own /healthz reflects the fleet.
func TestRouterHealthEjection(t *testing.T) {
	a := newFakeReplica(t, "a", 0, 0)
	b := newFakeReplica(t, "b", 0, 0)
	rt := newTestRouter(t, RouterConfig{
		Backends:       []string{a.srv.URL, b.srv.URL},
		HealthInterval: 10 * time.Millisecond,
		HedgeAfter:     -1,
	})
	waitHealth := func(idx int, want bool) {
		deadline := time.Now().Add(5 * time.Second)
		for rt.backs[idx].healthy.Load() != want {
			if time.Now().After(deadline) {
				t.Fatalf("backend %d health never became %v", idx, want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	b.healthy.Store(false)
	waitHealth(1, false)
	// Solves keep landing on the healthy replica only.
	for i := 0; i < 10; i++ {
		if w := routerSolve(t, rt, fmt.Sprintf("p-%d", i), nil); w.Code != http.StatusOK {
			t.Fatalf("solve during ejection: %d", w.Code)
		}
	}
	if b.solves.Load() != 0 {
		t.Fatalf("ejected replica served %d solves", b.solves.Load())
	}
	// Router /healthz still ok with one replica up.
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("router healthz = %d with one healthy replica", w.Code)
	}
	b.healthy.Store(true)
	waitHealth(1, true)
}

// TestRouterHashStability: the ring is deterministic, spreads plans
// across replicas, and keeps every plan's primary stable across calls.
func TestRouterHashStability(t *testing.T) {
	a := newFakeReplica(t, "a", 0, 0)
	b := newFakeReplica(t, "b", 0, 0)
	rt := newTestRouter(t, RouterConfig{
		Backends:       []string{a.srv.URL, b.srv.URL},
		HealthInterval: time.Hour,
		HedgeAfter:     -1,
	})
	counts := map[int]int{}
	for i := 0; i < 200; i++ {
		plan := fmt.Sprintf("plan-%d", i)
		c1 := rt.candidates(plan)
		c2 := rt.candidates(plan)
		if len(c1) != 2 || len(c2) != 2 || c1[0] != c2[0] || c1[1] != c2[1] {
			t.Fatalf("candidates for %q unstable: %v vs %v", plan, c1, c2)
		}
		counts[c1[0]]++
	}
	if counts[0] < 40 || counts[1] < 40 {
		t.Fatalf("ring skew: primary counts %v", counts)
	}
}

// TestRouterMetricsEndpoint sanity-checks the exposition.
func TestRouterMetricsEndpoint(t *testing.T) {
	a := newFakeReplica(t, "a", 0, 0)
	rt := newTestRouter(t, RouterConfig{
		Backends:       []string{a.srv.URL},
		HealthInterval: time.Hour,
		HedgeAfter:     -1,
	})
	routerSolve(t, rt, "p", nil)
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	body := w.Body.String()
	for _, want := range []string{"stsrouter_requests_total 1", "stsrouter_backend_healthy"} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestRouterSolveBodyAgreement sends every decoder fuzz seed to a real
// backend, directly and through a router in front of it: the two
// statuses must match, 400s included. The router reads a solve body with
// the backend's own decoder, so a body with bytes after its object (which
// encoding/json's Decoder ignores and json.Unmarshal refuses) routes
// instead of bouncing.
func TestRouterSolveBodyAgreement(t *testing.T) {
	srv := NewServer(NewRegistry(Config{}))
	backend := httptest.NewServer(srv)
	t.Cleanup(srv.Close)
	t.Cleanup(backend.Close)
	info, err := srv.Registry().Register(PlanSpec{Name: "p", Class: "grid2d", N: seedRows})
	if err != nil {
		t.Fatal(err)
	}
	if info.N != seedRows {
		t.Fatalf("plan p has %d rows, the seeds assume %d", info.N, seedRows)
	}
	rt := newTestRouter(t, RouterConfig{
		Backends:       []string{backend.URL},
		HealthInterval: time.Hour,
		HedgeAfter:     -1,
	})
	seen := map[int]int{}
	for _, body := range floatBodySeeds {
		resp, err := backend.Client().Post(backend.URL+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		w := httptest.NewRecorder()
		rt.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body)))
		if w.Code != resp.StatusCode {
			t.Errorf("body %q: router %d, backend %d (%s)", body, w.Code, resp.StatusCode, w.Body.String())
		}
		seen[resp.StatusCode]++
	}
	// The seeds reach every answer a body alone decides.
	for _, code := range []int{http.StatusOK, http.StatusBadRequest, http.StatusNotFound} {
		if seen[code] == 0 {
			t.Errorf("no seed answered %d (statuses seen: %v)", code, seen)
		}
	}
}
