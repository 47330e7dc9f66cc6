package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"testing"
	"time"

	"stsk"
	"stsk/internal/trace"
)

// solveTraced posts one solve and returns the response plus the
// lifecycle trace record the ring retained for it.
func solveTraced(t *testing.T, ts *httptest.Server, reg *Registry, req SolveRequest, hdr map[string]string) (*http.Response, trace.Record) {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		hreq.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-STS-Trace-Id")
	if id == "" {
		t.Fatal("solve response carries no X-STS-Trace-Id header")
	}
	// The handler finishes its trace in a deferred call after the response
	// is written, so the client can read the response first: wait for the
	// record to land.
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, rec := range reg.TraceRing().Snapshot(0) {
			if rec.ID == id {
				return resp, rec
			}
		}
	}
	t.Fatalf("trace %s not retained in the ring", id)
	return nil, trace.Record{}
}

// checkWellNested fails unless every pair of spans is either disjoint or
// one contains the other (half-open intervals), and every span lies
// within [0, Total]. Returns the fraction of the trace's wall time the
// span union covers.
func checkWellNested(t *testing.T, rec trace.Record) float64 {
	t.Helper()
	total := int64(rec.Total)
	for i, s := range rec.Spans {
		if s.Start < 0 || s.End < s.Start || s.End > total {
			t.Errorf("span %d (%s): [%d, %d) outside trace [0, %d)", i, s.Stage, s.Start, s.End, total)
		}
		for j := i + 1; j < len(rec.Spans); j++ {
			o := rec.Spans[j]
			disjoint := s.End <= o.Start || o.End <= s.Start
			sInO := o.Start <= s.Start && s.End <= o.End
			oInS := s.Start <= o.Start && o.End <= s.End
			if !disjoint && !sInO && !oInS {
				t.Errorf("spans %s [%d,%d) and %s [%d,%d) partially overlap — not well-nested",
					s.Stage, s.Start, s.End, o.Stage, o.Start, o.End)
			}
		}
	}
	if total <= 0 {
		return 0
	}
	// Union of span intervals (Spans are sorted by start).
	type iv struct{ a, b int64 }
	var merged []iv
	for _, s := range rec.Spans {
		if n := len(merged); n > 0 && s.Start <= merged[n-1].b {
			if s.End > merged[n-1].b {
				merged[n-1].b = s.End
			}
			continue
		}
		merged = append(merged, iv{s.Start, s.End})
	}
	covered := int64(0)
	for _, m := range merged {
		covered += m.b - m.a
	}
	return float64(covered) / float64(total)
}

// TestTraceLifecycleCoverage pins the tentpole contract: a served solve
// leaves one well-nested trace whose spans attribute at least 95% of the
// request's wall time to named stages. An injected engine.job latency
// makes the kernel span dominate, so scheduler noise in the untraced gaps
// (a channel handoff, a goroutine wake-up) stays far under the 5% budget;
// best-of-three absorbs one-off CI hiccups.
func TestTraceLifecycleCoverage(t *testing.T) {
	reg := NewRegistry(Config{})
	srv := NewServer(reg)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	ref := refPlan(t, "grid3d", 1500, stsk.STS3)
	if _, err := reg.Register(PlanSpec{Name: "g3", Class: "grid3d", N: 1500, Method: "sts3"}); err != nil {
		t.Fatal(err)
	}
	b := manufacturedRHS(ref, 1)
	withFaults(t, "engine.job:latency:d=5ms", 1)

	best := 0.0
	var bestRec trace.Record
	for attempt := 0; attempt < 3 && best < 0.95; attempt++ {
		resp, rec := solveTraced(t, ts, reg, SolveRequest{Plan: "g3", B: b}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve: status %d", resp.StatusCode)
		}
		if cov := checkWellNested(t, rec); cov > best {
			best, bestRec = cov, rec
		}
	}
	if best < 0.95 {
		t.Errorf("span coverage %.1f%% < 95%% of wall time: %+v", best*100, bestRec)
	}
	// The stages the single-solve lifecycle must visit. A stage is visited
	// when its span is recorded: a lone request's coalesce_wait is one
	// scheduler yield, and may read zero.
	for _, want := range []trace.Stage{
		trace.StageAdmission, trace.StageRegistry, trace.StageEnqueue,
		trace.StageQueueWait, trace.StageCoalesceWait, trace.StageKernel,
		trace.StageSerialize,
	} {
		if !slices.ContainsFunc(bestRec.Spans, func(s trace.Span) bool { return s.Stage == want }) {
			t.Errorf("stage %s missing from the lifecycle trace: %+v", want, bestRec)
		}
	}
	if bestRec.Outcome != "ok" {
		t.Errorf("outcome = %q, want ok", bestRec.Outcome)
	}
	if bestRec.Dropped != 0 {
		t.Errorf("dropped %d spans on a plain solve", bestRec.Dropped)
	}
}

// TestTraceIDPropagation pins the correlation contract: a
// client-supplied X-STS-Trace-Id is echoed on the response and names the
// retained record; absent a client ID the server mints one.
func TestTraceIDPropagation(t *testing.T) {
	reg := NewRegistry(Config{})
	srv := NewServer(reg)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	ref := refPlan(t, "grid3d", 800, stsk.STS3)
	if _, err := reg.Register(PlanSpec{Name: "g3", Class: "grid3d", N: 800}); err != nil {
		t.Fatal(err)
	}
	b := manufacturedRHS(ref, 2)

	resp, rec := solveTraced(t, ts, reg, SolveRequest{Plan: "g3", B: b},
		map[string]string{"X-STS-Trace-Id": "tracetest42"})
	if got := resp.Header.Get("X-STS-Trace-Id"); got != "tracetest42" {
		t.Errorf("echoed trace ID = %q, want the client's tracetest42", got)
	}
	if rec.ID != "tracetest42" || rec.Plan != "g3" {
		t.Errorf("retained record = %q/%q, want tracetest42/g3", rec.ID, rec.Plan)
	}

	resp, rec = solveTraced(t, ts, reg, SolveRequest{Plan: "g3", B: b}, nil)
	if id := resp.Header.Get("X-STS-Trace-Id"); len(id) != 16 {
		t.Errorf("minted trace ID %q, want 16 hex chars", id)
	} else if rec.ID != id {
		t.Errorf("record ID %q != header %q", rec.ID, id)
	}
}

// TestDebugTracesEndpoint pins the /debug/traces JSON: per-stage
// breakdowns for retained traces, threshold filtering at read time, and
// a 400 for a threshold that is not a finite non-negative number.
func TestDebugTracesEndpoint(t *testing.T) {
	reg := NewRegistry(Config{})
	srv := NewServer(reg)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	ref := refPlan(t, "grid3d", 800, stsk.STS3)
	if _, err := reg.Register(PlanSpec{Name: "g3", Class: "grid3d", N: 800}); err != nil {
		t.Fatal(err)
	}
	if _, rec := solveTraced(t, ts, reg, SolveRequest{Plan: "g3", B: manufacturedRHS(ref, 3)}, nil); rec.ID == "" {
		t.Fatal("no trace retained")
	}

	resp, err := ts.Client().Get(ts.URL + "/debug/traces?thresholdMs=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc traceDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces: %d (%v)", resp.StatusCode, err)
	}
	if !doc.Enabled || doc.Capacity <= 0 || doc.Admitted == 0 || len(doc.Traces) == 0 {
		t.Fatalf("trace doc: %+v", doc)
	}
	got := doc.Traces[0]
	if got.Outcome != "ok" || got.Plan != "g3" || len(got.Spans) == 0 {
		t.Errorf("retained trace: %+v", got)
	}
	for _, sp := range got.Spans {
		if sp.Stage == "" || sp.DurationUs < 0 || sp.OffsetUs < 0 {
			t.Errorf("bad span in /debug/traces: %+v", sp)
		}
	}
	if !sort.SliceIsSorted(got.Spans, func(i, j int) bool { return got.Spans[i].OffsetUs <= got.Spans[j].OffsetUs }) {
		t.Errorf("spans not sorted by offset: %+v", got.Spans)
	}

	// An absurd threshold filters everything, including one beyond the
	// Duration range; a malformed, negative or non-finite one is a 400.
	for _, q := range []string{"1e9", "1e300"} {
		resp, err = ts.Client().Get(ts.URL + "/debug/traces?thresholdMs=" + q)
		if err != nil {
			t.Fatal(err)
		}
		doc = traceDoc{}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("thresholdMs=%s: %d (%v)", q, resp.StatusCode, err)
		}
		if len(doc.Traces) != 0 {
			t.Errorf("thresholdMs=%s retained %d traces", q, len(doc.Traces))
		}
	}
	for _, q := range []string{"-3", "abc", "NaN", "Inf", "-Inf", "1e999"} {
		resp, err = ts.Client().Get(ts.URL + "/debug/traces?thresholdMs=" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("thresholdMs=%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestQueueWaitReconciliation pins the queue-wait attribution against a
// known queue-depth integral: three requests parked in an unstarted
// coalescer for a fixed interval must account for at least
// 3 × interval of queue_wait in the stage histograms once dispatched —
// the histogram sum reconciles with ∫ depth dt, which the parked phase
// bounds from below.
func TestQueueWaitReconciliation(t *testing.T) {
	ref := refPlan(t, "grid3d", 600, stsk.STS3)
	solver := ref.NewSolver()
	defer solver.Close()
	met := &Metrics{}
	c := newCoalescer(solver, false, 64, met)

	const parked = 3
	const hold = 20 * time.Millisecond
	reqs := make([]*solveReq, parked)
	trs := make([]*trace.Trace, parked)
	for i := range reqs {
		trs[i] = trace.New("")
		trs[i].Retain() // the coalescer's reference, released by complete()
		reqs[i] = &solveReq{
			ctx:  context.Background(),
			b:    manufacturedRHS(ref, i),
			x:    make([]float64, ref.N()),
			done: make(chan error, 1),
			tr:   trs[i],
		}
		reqs[i].enqNs = trace.Now()
		if err := c.enqueue(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(hold) // every request sits queued: depth integral ≥ parked × hold
	c.start()
	for i, r := range reqs {
		if err := <-r.done; err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	c.close()
	for _, tr := range trs {
		rec := tr.Finish("g3", "ok")
		met.observeTrace(rec, true)
		tr.Release()
	}

	sum, count := met.StageLatencyTotal(trace.StageQueueWait)
	if count != parked {
		t.Fatalf("queue_wait observations = %d, want %d", count, parked)
	}
	floor := time.Duration(parked) * hold
	if sum < floor {
		t.Errorf("queue_wait sum %v < depth integral floor %v", sum, floor)
	}
	if ceil := floor + 5*time.Second; sum > ceil {
		t.Errorf("queue_wait sum %v implausibly above %v — stamps broken", sum, ceil)
	}
}
