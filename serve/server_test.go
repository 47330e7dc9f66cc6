package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"stsk"
)

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
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

// withNull returns xs as JSON array elements with a null at index i.
func withNull(xs []float64, i int) []any {
	out := make([]any, len(xs))
	for j, x := range xs {
		out[j] = x
	}
	out[i] = nil
	return out
}

func TestServerEndToEnd(t *testing.T) {
	reg := NewRegistry(Config{})
	srv := NewServer(reg)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	// Register a plan over HTTP.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/plans",
		PlanSpec{Name: "g3", Class: "grid3d", N: 1500, Method: "sts3"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	var info PlanInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if !info.Loaded || info.N == 0 {
		t.Fatalf("register info: %+v", info)
	}

	// Conflicting registration → 409; idempotent → 200.
	resp, _ = postJSON(t, ts.Client(), ts.URL+"/v1/plans", PlanSpec{Name: "g3", Class: "trimesh", N: 999})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting register: %d, want 409", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.Client(), ts.URL+"/v1/plans", PlanSpec{Name: "g3", Class: "grid3d", N: 1500, Method: "sts3"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("idempotent register: %d, want 200", resp.StatusCode)
	}

	// Listing shows it.
	lresp, err := ts.Client().Get(ts.URL + "/v1/plans")
	if err != nil {
		t.Fatal(err)
	}
	var infos []PlanInfo
	if err := json.NewDecoder(lresp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(infos) != 1 || infos[0].Spec.Name != "g3" {
		t.Fatalf("list: %+v", infos)
	}

	// Solve over HTTP, forward and upper, bitwise vs Plan.Solve (JSON
	// float64 round-trips exactly).
	ref := refPlan(t, "grid3d", 1500, stsk.STS3)
	b := manufacturedRHS(ref, 7)
	var wg sync.WaitGroup
	for _, upper := range []bool{false, true} {
		wg.Add(1)
		go func(upper bool) {
			defer wg.Done()
			resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/solve",
				SolveRequest{Plan: "g3", B: b, Upper: upper})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("solve upper=%v: %d %s", upper, resp.StatusCode, body)
				return
			}
			var sr SolveResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Error(err)
				return
			}
			var want []float64
			if upper {
				want, _ = ref.SolveUpper(b)
			} else {
				want, _ = ref.Solve(b)
			}
			for i := range sr.X {
				if sr.X[i] != want[i] {
					t.Errorf("upper=%v: HTTP solution differs at %d", upper, i)
					return
				}
			}
		}(upper)
	}
	wg.Wait()

	// Error mapping: unknown plan 404, short rhs 400.
	resp, _ = postJSON(t, ts.Client(), ts.URL+"/v1/solve", SolveRequest{Plan: "nope", B: b})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown plan: %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.Client(), ts.URL+"/v1/solve", SolveRequest{Plan: "g3", B: b[:3]})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("short rhs: %d, want 400", resp.StatusCode)
	}
	// A null element, which is how JSON.stringify writes NaN and ±Inf, is
	// refused by index, not read as 0.
	last := len(b) - 1
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/solve",
		map[string]any{"plan": "g3", "b": withNull(b, last)})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), fmt.Sprintf("b[%d]", last)) {
		t.Errorf("rhs ending in null: %d %s, want 400 naming b[%d]", resp.StatusCode, body, last)
	}

	// Health and metrics.
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health healthBody
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if health.Status != "ok" || health.Plans != 1 {
		t.Errorf("healthz: %+v", health)
	}
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, series := range []string{
		"stsserve_requests_total",
		"stsserve_requests_solved_total 2",
		"stsserve_solve_batches_total",
		"stsserve_panel_width_mean",
		"stsserve_plans_loaded 1",
		"stsserve_solve_latency_seconds_bucket{le=\"+Inf\"} 2",
	} {
		if !strings.Contains(string(mbody), series) {
			t.Errorf("metrics exposition missing %q:\n%s", series, mbody)
		}
	}

	// A timeout beyond the Duration range is no extra deadline, not an
	// overflowed one that expires at once.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/solve",
		SolveRequest{Plan: "g3", B: b, TimeoutMs: 10_000_000_000_000})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("enormous timeoutMs: %d %s, want 200", resp.StatusCode, body)
	} else {
		var sr SolveResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		want, _ := ref.Solve(b)
		for i := range want {
			if sr.X[i] != want[i] {
				t.Fatalf("enormous timeoutMs: solution differs at %d", i)
			}
		}
	}

	// Drain: after Close every endpoint that mutates answers 503 and
	// healthz reports draining.
	srv.Close()
	resp, _ = postJSON(t, ts.Client(), ts.URL+"/v1/solve", SolveRequest{Plan: "g3", B: b})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("solve while draining: %d, want 503", resp.StatusCode)
	}
	hresp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if health.Status != "draining" {
		t.Errorf("healthz while draining: %+v", health)
	}
}
