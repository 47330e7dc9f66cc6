package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sync"
	"testing"
	"time"

	"stsk/serve"
)

// smallBurst is the serve-burst workload shrunk to plans a test builds in
// milliseconds.
func smallBurst(t *testing.T) *burstWorkload {
	t.Helper()
	w := newBurst(3)
	w.specs = []serve.PlanSpec{
		{Name: "grid3d", Class: "grid3d", N: 1000, Method: "sts3"},
		{Name: "trimesh", Class: "trimesh", N: 1000, Method: "sts3"},
	}
	w.mix.plans = len(w.specs)
	if err := w.prepare(startBuild(nil, "prepare")); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBurstAnswersCheckOut(t *testing.T) {
	w := smallBurst(t)
	var tl tally
	if err := w.setup(startBuild(nil, "setup"), &tl); err != nil {
		t.Fatal(err)
	}
	defer w.teardown()
	win := &window{tr: newTracer()}
	w.drive(200*time.Millisecond, win, &tl)
	if tl.attempted.Load() < 20 || tl.failed() != 0 {
		t.Fatalf("attempted %d, failed %d (wrong %d); want a clean run", tl.attempted.Load(), tl.failed(), tl.wrong.Load())
	}
	if r := selfSumRatio(win.tr.summarize()); r < 0.95 || r > 1.05 {
		t.Fatalf("layer self times sum to %.3f of the op latency, want 1 within 5%%", r)
	}
	if upd := w.updates(&tl); len(upd) != updatesPerPhase || tl.failed() != 0 {
		t.Fatalf("%d of %d updates checked out, %d failed", len(upd), updatesPerPhase, tl.failed())
	}
}

func TestCorruptedAnswerCountsAsFailed(t *testing.T) {
	w := smallBurst(t)
	var once sync.Once
	w.mutate = func(x []float64) {
		once.Do(func() { x[len(x)/2] = math.Nextafter(x[len(x)/2], math.Inf(1)) })
	}
	var tl tally
	if err := w.setup(startBuild(nil, "setup"), &tl); err != nil {
		t.Fatal(err)
	}
	defer w.teardown()
	win := &window{}
	w.drive(200*time.Millisecond, win, &tl)
	if tl.wrong.Load() != 1 || tl.failed() != 1 {
		t.Fatalf("wrong %d, failed %d; want the one corrupted answer counted", tl.wrong.Load(), tl.failed())
	}
	if got, want := int64(len(win.lat.values())), win.ops()-1; got != want {
		t.Fatalf("%d latency samples for %d ops; a failed op must not add one", got, win.ops())
	}
}

func TestHTTPUpdateAnswersCheckOut(t *testing.T) {
	w := newHTTPUpdate(5, t.TempDir())
	w.spec.N = 1000
	if err := w.prepare(startBuild(nil, "prepare")); err != nil {
		t.Fatal(err)
	}
	var tl tally
	if err := w.setup(startBuild(nil, "setup"), &tl); err != nil {
		t.Fatal(err)
	}
	defer w.teardown()
	win := &window{tr: newTracer()}
	w.drive(400*time.Millisecond, win, &tl)
	if tl.attempted.Load() < 50 || tl.failed() != 0 {
		t.Fatalf("attempted %d, failed %d (wrong %d); want a clean run", tl.attempted.Load(), tl.failed(), tl.wrong.Load())
	}
	if len(win.upd.values()) == 0 {
		t.Fatal("no values PUT completed")
	}
	if r := selfSumRatio(win.tr.summarize()); r < 0.95 || r > 1.05 {
		t.Fatalf("layer self times sum to %.3f of the op latency, want 1 within 5%%", r)
	}
	m := w.layers(win)
	if m["http.handler_ms_p50"] <= 0 || m["http.update_handler_ms_p50"] <= 0 || m["serve.value_updates"] == 0 {
		t.Fatalf("handler spans or write-path counters missing: %v", m)
	}
}

func TestHTTPCheckRejectsCorruptedAnswer(t *testing.T) {
	w := &httpUpdateWorkload{}
	x := []float64{1.5, -0.25, 3e-7}
	raw, err := json.Marshal(x)
	if err != nil {
		t.Fatal(err)
	}
	x4 := []float64{x[0] / 4, x[1] / 4, x[2] / 4}
	raw4, err := json.Marshal(x4)
	if err != nil {
		t.Fatal(err)
	}
	w.want[0][0][0] = [][]byte{raw}
	w.wantF[0][0][0] = [][]float64{x}
	w.want[1][0][0] = [][]byte{raw4}
	w.wantF[1][0][0] = [][]float64{x4}
	resp := func(x []float64) []byte {
		b, err := json.Marshal(serve.SolveResponse{X: x, Plan: "grid3d", DurationMs: 1})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	bad := []float64{x[0], math.Nextafter(x[1], 0), x[2]}
	for _, tc := range []struct {
		name   string
		body   []byte
		lo, hi int64
		want   bool
	}{
		{"exact answer", resp(x), 0, 0, true},
		{"one ulp off", resp(bad), 0, 0, false},
		{"answer of a version not live", resp(x4), 0, 0, false},
		{"answer of a version live mid-request", resp(x4), 0, 1, true},
		{"reformatted but equal", bytes.ReplaceAll(resp(x), []byte(`{"x":`), []byte(`{ "x" : `)), 0, 0, true},
		{"not JSON", []byte("oops"), 0, 0, false},
	} {
		if got := w.check(tc.body, 0, 0, 0, tc.lo, tc.hi); got != tc.want {
			t.Errorf("%s: check = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// The printed metric names are the contract with BENCHMARK.json.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", what, len(got), len(defs))
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program prints %s [%s]", what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		if workloads[wl.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", wl.Name)
		}
	}
}
