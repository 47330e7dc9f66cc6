package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"stsk"
)

func putJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
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

// scaledValues returns the spec matrix's value array scaled by f — a
// deterministic "evolving system" step that both the server and the
// reference plan can reproduce exactly.
func scaledValues(t *testing.T, class string, n int, f float64) []float64 {
	t.Helper()
	mat, err := stsk.Generate(class, n)
	if err != nil {
		t.Fatal(err)
	}
	vals := mat.Values()
	for i := range vals {
		vals[i] *= f
	}
	return vals
}

// TestUpdateValuesEndToEnd drives the PUT /v1/plans/{name}/values
// contract over HTTP: version bump visible in GET /v1/plans, coalesced
// post-update responses bitwise equal to a plan rebuilt on the new
// values, the IC0 variant re-factored, the 404/400/409 error mapping,
// and the metrics exposition.
func TestUpdateValuesEndToEnd(t *testing.T) {
	reg := NewRegistry(Config{})
	srv := NewServer(reg)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/plans",
		PlanSpec{Name: "g3", Class: "grid3d", N: 1200, Method: "sts3"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	var info PlanInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 {
		t.Fatalf("registered plan at version %d, want 1", info.Version)
	}

	// Warm the IC0 variant so the update has something to drop.
	ref := refPlan(t, "grid3d", 1200, stsk.STS3)
	b := manufacturedRHS(ref, 11)
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/solve",
		SolveRequest{Plan: "g3", B: b, Variant: VariantIC0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ic0 solve: %d %s", resp.StatusCode, body)
	}

	// Error contract first: unknown plan 404, wrong-length values 400,
	// stale ifVersion 409.
	vals := scaledValues(t, "grid3d", 1200, 2)
	resp, _ = putJSON(t, ts.Client(), ts.URL+"/v1/plans/nope/values", UpdateValuesRequest{Values: vals})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown plan: %d, want 404", resp.StatusCode)
	}
	resp, body = putJSON(t, ts.Client(), ts.URL+"/v1/plans/g3/values", UpdateValuesRequest{Values: vals[:7]})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short values: %d %s, want 400", resp.StatusCode, body)
	}
	resp, body = putJSON(t, ts.Client(), ts.URL+"/v1/plans/g3/values", UpdateValuesRequest{Values: vals, IfVersion: 99})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale ifVersion: %d %s, want 409", resp.StatusCode, body)
	}
	// A null value is refused by index, not read as 0: the update below,
	// conditioned on version 1, proves the matrix was left alone.
	resp, body = putJSON(t, ts.Client(), ts.URL+"/v1/plans/g3/values", map[string]any{"values": withNull(vals, 5)})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "values[5]") {
		t.Fatalf("null value: %d %s, want 400 naming values[5]", resp.StatusCode, body)
	}

	// The real update, conditioned on the current version.
	resp, body = putJSON(t, ts.Client(), ts.URL+"/v1/plans/g3/values", UpdateValuesRequest{Values: vals, IfVersion: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 {
		t.Fatalf("updated plan at version %d, want 2", info.Version)
	}

	// GET /v1/plans reports the bumped version and the dropped IC0 variant.
	lresp, err := ts.Client().Get(ts.URL + "/v1/plans")
	if err != nil {
		t.Fatal(err)
	}
	var infos []PlanInfo
	if err := json.NewDecoder(lresp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(infos) != 1 || infos[0].Version != 2 {
		t.Fatalf("list after update: %+v", infos)
	}
	if infos[0].IC0 {
		t.Fatal("IC0 variant still resident after value update")
	}

	// Post-update coalesced solves are bitwise equal to a plan rebuilt on
	// the new values — direct, upper, and the lazily re-factored IC0.
	if err := ref.Refactor(vals); err != nil {
		t.Fatal(err)
	}
	refIC0, err := ref.IC0()
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name string
		req  SolveRequest
		want func() ([]float64, error)
	}{
		{"direct", SolveRequest{Plan: "g3", B: b}, func() ([]float64, error) { return ref.Solve(b) }},
		{"upper", SolveRequest{Plan: "g3", B: b, Upper: true}, func() ([]float64, error) { return ref.SolveUpper(b) }},
		{"ic0", SolveRequest{Plan: "g3", B: b, Variant: VariantIC0}, func() ([]float64, error) { return refIC0.Solve(b) }},
	}
	for _, c := range checks {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/solve", c.req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s solve after update: %d %s", c.name, resp.StatusCode, body)
		}
		var sr SolveResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		want, err := c.want()
		if err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, sr.X, want, c.name+"/post-update")
	}

	// Metrics report the update counter and the per-plan version gauge.
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, series := range []string{
		"stsserve_value_updates_total 1",
		`stsserve_plan_version{plan="g3"} 2`,
	} {
		if !strings.Contains(string(mbody), series) {
			t.Errorf("metrics exposition missing %q:\n%s", series, mbody)
		}
	}

	// Draining server bounces updates with 503.
	srv.Close()
	resp, _ = putJSON(t, ts.Client(), ts.URL+"/v1/plans/g3/values", UpdateValuesRequest{Values: vals})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("update while draining: %d, want 503", resp.StatusCode)
	}
}

// TestSolveOverflowAnswers422: finite values whose forward sweep
// overflows are accepted by a values PUT, and the registry's solve
// returns the overflowed solution with a nil error, but JSON cannot
// carry it: POST /v1/solve answers 422 naming ErrNonFinite, not a 500
// about unrepresentable JSON, and the request's trace records the
// refusal.
func TestSolveOverflowAnswers422(t *testing.T) {
	reg := NewRegistry(Config{})
	srv := NewServer(reg)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/plans",
		PlanSpec{Name: "t", Class: "trimesh", N: 64, Method: "sts3"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	// Unit diagonal, 1e200 off the diagonal (the generated off-diagonals
	// are the negative entries).
	vals := scaledValues(t, "trimesh", 64, 1)
	for k, v := range vals {
		vals[k] = 1
		if v < 0 {
			vals[k] = 1e200
		}
	}
	resp, body = putJSON(t, ts.Client(), ts.URL+"/v1/plans/t/values", UpdateValuesRequest{Values: vals})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %d %s", resp.StatusCode, body)
	}
	b := make([]float64, 64)
	for i := range b {
		b[i] = 1
	}
	x, err := reg.Solve(t.Context(), "t", VariantDirect, false, b)
	if err != nil || !slices.ContainsFunc(x, func(v float64) bool { return math.IsInf(v, 0) || math.IsNaN(v) }) {
		t.Fatalf("registry solve: err %v; want nil and an overflowed solution", err)
	}

	req := SolveRequest{Plan: "t", B: b}
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), stsk.ErrNonFinite.Error()) {
		t.Fatalf("solve: %d %s, want 422 naming %q", resp.StatusCode, body, stsk.ErrNonFinite)
	}
	resp, rec := solveTraced(t, ts, reg, req, nil)
	if resp.StatusCode != http.StatusUnprocessableEntity || rec.Outcome != "error" {
		t.Fatalf("traced solve: %d, outcome %q; want 422 recorded as an error", resp.StatusCode, rec.Outcome)
	}
}

// TestUpdateValuesIC0NonFinite: a values PUT whose numbers are all
// finite but whose IC(0) factor is not is accepted, since the direct
// factor is sound; the next ic0 solve then answers 422 with
// ErrNonFinite's message instead of a 500 about unrepresentable JSON,
// and the direct solve still answers 200. Off-diagonals of 10 over a
// unit diagonal make A′ indefinite, so the unshifted elimination breaks
// down, and the boosted retry's shift of 1e-3·MaxFloat64 overflows the
// one diagonal set to MaxFloat64 to +Inf.
func TestUpdateValuesIC0NonFinite(t *testing.T) {
	reg := NewRegistry(Config{})
	srv := NewServer(reg)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/plans",
		PlanSpec{Name: "t", Class: "trimesh", N: 64, Method: "sts3"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	// The generated values are SPD by dominance: every diagonal entry is
	// positive and every off-diagonal one is -1.
	vals := scaledValues(t, "trimesh", 64, 1)
	for k, v := range vals {
		vals[k] = 10
		if v > 0 {
			vals[k] = 1
		}
	}
	vals[0] = math.MaxFloat64 // the first stored entry is row 0's diagonal
	resp, body = putJSON(t, ts.Client(), ts.URL+"/v1/plans/t/values", UpdateValuesRequest{Values: vals})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %d %s", resp.StatusCode, body)
	}

	ref := refPlan(t, "trimesh", 64, stsk.STS3)
	b := manufacturedRHS(ref, 3)
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/solve", SolveRequest{Plan: "t", B: b, Variant: VariantIC0})
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "non-finite") {
		t.Fatalf("ic0 solve: %d %s, want 422 naming the non-finite factor", resp.StatusCode, body)
	}
	if err := ref.Refactor(vals); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/solve", SolveRequest{Plan: "t", B: b})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("direct solve: %d %s", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, sr.X, want, "direct after a refused factor")
}

// TestUpdateValuesSurvivesEviction: a value update outlives LRU eviction —
// the rebuilt plan replays the latest values before going live, so a
// client can never observe a silent revert to the spec's original matrix.
func TestUpdateValuesSurvivesEviction(t *testing.T) {
	reg := NewRegistry(Config{BudgetBytes: 1 << 19}) // tiny: one resident plan at most
	defer reg.Close()
	if _, err := reg.Register(PlanSpec{Name: "a", Class: "grid3d", N: 900, Method: "sts3"}); err != nil {
		t.Fatal(err)
	}
	vals := scaledValues(t, "grid3d", 900, 3)
	info, err := reg.UpdateValues("a", vals, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 {
		t.Fatalf("version %d after update, want 2", info.Version)
	}

	// Evict "a" by building a second plan under the tiny budget.
	if _, err := reg.Register(PlanSpec{Name: "b", Class: "grid3d", N: 900, Method: "sts3"}); err != nil {
		t.Fatal(err)
	}
	for _, pi := range reg.List() {
		if pi.Spec.Name == "a" && pi.Loaded {
			t.Skip("budget did not evict; environment-dependent estimate")
		}
	}

	// The rebuilt plan must solve on the updated values.
	ref := refPlan(t, "grid3d", 900, stsk.STS3)
	if err := ref.Refactor(vals); err != nil {
		t.Fatal(err)
	}
	b := manufacturedRHS(ref, 3)
	x, err := reg.Solve(t.Context(), "a", VariantDirect, false, b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, x, want, "post-eviction")

	// And the version is still 2.
	for _, pi := range reg.List() {
		if pi.Spec.Name == "a" && pi.Version != 2 {
			t.Fatalf("version %d after eviction+rebuild, want 2", pi.Version)
		}
	}
}

// TestUpdateValuesConcurrentWithSolves hammers UpdateValues against
// coalesced solves (run under -race): every response is a complete
// solution for one of the two value epochs, never torn.
func TestUpdateValuesConcurrentWithSolves(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close()
	if _, err := reg.Register(PlanSpec{Name: "g", Class: "grid3d", N: 900, Method: "sts3"}); err != nil {
		t.Fatal(err)
	}
	v1 := scaledValues(t, "grid3d", 900, 1)
	v2 := scaledValues(t, "grid3d", 900, 2)
	ref := refPlan(t, "grid3d", 900, stsk.STS3)
	b := manufacturedRHS(ref, 5)
	want1, err := ref.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Refactor(v2); err != nil {
		t.Fatal(err)
	}
	want2, err := ref.Solve(b)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		for i := 0; i < 20; i++ {
			v := v1
			if i%2 == 0 {
				v = v2
			}
			if _, err := reg.UpdateValues("g", v, 0); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 30; i++ {
		x, err := reg.Solve(t.Context(), "g", VariantDirect, false, b)
		if err != nil {
			t.Fatal(err)
		}
		match1, match2 := true, true
		for j := range x {
			if x[j] != want1[j] {
				match1 = false
			}
			if x[j] != want2[j] {
				match2 = false
			}
			if !match1 && !match2 {
				t.Fatalf("solve %d: torn solution at %d", i, j)
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
