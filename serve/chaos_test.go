package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stsk/internal/faultinject"
)

// TestChaosServing is the fault-tolerance acceptance harness: 32
// concurrent HTTP clients hammer a live server while deterministic
// faults fire inside it — kernel panics at engine job boundaries, queue
// saturation at the coalescer, transport-level injections, and epoch-
// swap failures under concurrent value updates. The daemon must never
// crash or deadlock, every 200 must be bitwise identical to Plan.Solve,
// every non-200 must come from the known refusal set, and the metrics
// must show panics actually recovered, requests actually solved, and
// saturation actually surfaced (not silently swallowed).
func TestChaosServing(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness is a load test")
	}
	reg := NewRegistry(Config{
		QueueCap: 64,
		// Undersized on purpose: the storm must wrap the slow-trace ring
		// many times over, exercising eviction under concurrent admission.
		TraceRing: 32,
	})
	srv := NewServer(reg)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	hp := buildHammerPlan(t, reg, "g3", "grid3d", 1200, 6)

	// Identical-value refactorizations: every epoch swap that lands keeps
	// the solutions bitwise unchanged, so a torn epoch — a solve reading
	// half-updated values — would show up as a bitwise mismatch below.
	vals := scaledValues(t, "grid3d", 1200, 1.0)

	spec := "engine.job:panic:p=0.02" +
		";coalescer.enqueue:saturate:p=0.1" +
		";http.solve:error:p=0.01" +
		";epoch.swap:error:p=0.2"
	if err := faultinject.Enable(spec, 7); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()

	allowed := map[int]bool{
		http.StatusTooManyRequests:     true, // saturation / shed
		http.StatusInternalServerError: true, // contained panic, injected transport error
		http.StatusServiceUnavailable:  true, // draining / degraded
		http.StatusRequestTimeout:      true, // per-request deadline
	}

	const clients = 32
	const perRound = 20
	const maxRounds = 25
	var mismatches atomic.Int64
	client := ts.Client()

	oneRound := func(round int) {
		var wg sync.WaitGroup
		for cidx := 0; cidx < clients; cidx++ {
			wg.Add(1)
			go func(cidx int) {
				defer wg.Done()
				for it := 0; it < perRound; it++ {
					ri := (cidx + it + round) % len(hp.bs)
					upper := (cidx+it)%2 == 1
					raw, _ := json.Marshal(SolveRequest{Plan: "g3", B: hp.bs[ri], Upper: upper, TimeoutMs: 5000})
					req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(raw))
					if err != nil {
						t.Error(err)
						return
					}
					req.Header.Set("Content-Type", "application/json")
					// Half the clients claim a priority, so brownout shedding
					// (if queue pressure trips it) never starves the round.
					if cidx%2 == 0 {
						req.Header.Set("X-STS-Priority", "1")
					}
					resp, err := client.Do(req)
					if err != nil {
						t.Errorf("client %d: transport error: %v", cidx, err)
						return
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						t.Errorf("client %d: read: %v", cidx, err)
						return
					}
					if resp.StatusCode != http.StatusOK {
						if !allowed[resp.StatusCode] {
							t.Errorf("client %d: status %d outside the refusal set: %s", cidx, resp.StatusCode, body)
							return
						}
						continue
					}
					var sr SolveResponse
					if err := json.Unmarshal(body, &sr); err != nil {
						t.Errorf("client %d: bad 200 body: %v", cidx, err)
						return
					}
					want := hp.fwd[ri]
					if upper {
						want = hp.bwd[ri]
					}
					for i := range sr.X {
						if sr.X[i] != want[i] {
							mismatches.Add(1)
							t.Errorf("client %d rhs %d upper=%v: bit difference at %d under chaos", cidx, ri, upper, i)
							return
						}
					}
				}
			}(cidx)
		}
		// A concurrent updater exercises epoch.swap under fire. Identical
		// values: a failed swap and a landed swap are both bitwise no-ops.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				raw, _ := json.Marshal(UpdateValuesRequest{Values: vals})
				req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/plans/g3/values", bytes.NewReader(raw))
				resp, err := client.Do(req)
				if err != nil {
					t.Errorf("updater: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && !allowed[resp.StatusCode] {
					t.Errorf("updater: status %d outside the refusal set", resp.StatusCode)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
		wg.Wait()
	}

	var snap Snapshot
	for round := 0; round < maxRounds; round++ {
		oneRound(round)
		if t.Failed() {
			t.FailNow()
		}
		snap = reg.Metrics().Snapshot()
		if snap.PanicsRecovered > 0 && snap.Solved > 0 && snap.Rejected > 0 {
			break
		}
	}
	if snap.PanicsRecovered == 0 {
		t.Error("chaos never recovered a panic — the injection (or the containment) is dead")
	}
	if snap.Solved == 0 {
		t.Error("chaos never solved a request")
	}
	if snap.Rejected == 0 {
		t.Error("chaos never surfaced queue saturation as a rejection")
	}
	if mismatches.Load() > 0 {
		t.Fatalf("%d bitwise mismatches under chaos", mismatches.Load())
	}

	// After the storm: faults off, the same daemon serves a clean,
	// bitwise-correct solve — nothing was torn or poisoned.
	faultinject.Disable()
	reg.brown.heal()
	raw, _ := json.Marshal(SolveRequest{Plan: "g3", B: hp.bs[0]})
	resp, err := client.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("post-chaos solve: %d (%v)", resp.StatusCode, err)
	}
	assertBitwise(t, sr.X, hp.fwd[0], "post-chaos solve")

	// The metrics exposition still renders and carries the fault counters.
	mresp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mbody, _ := io.ReadAll(mresp.Body)
	wantLine := fmt.Sprintf("stsserve_panics_recovered_total %s", strconv.FormatInt(snap.PanicsRecovered, 10))
	if !bytes.Contains(mbody, []byte(wantLine)) {
		t.Errorf("metrics exposition missing %q", wantLine)
	}
	t.Logf("chaos: solved=%d rejected=%d failed=%d panics=%d retries=%d shed=%d cancelled=%d",
		snap.Solved, snap.Rejected, snap.Failed, snap.PanicsRecovered, snap.Retries, snap.Shed, snap.Cancelled)

	// The slow-trace ring survived the storm intact: bounded at its
	// capacity, evicting (admissions far beyond capacity), every retained
	// record internally consistent, and read-time threshold filtering
	// monotone. Storm outcomes — including the refusals — are all from the
	// trace outcome vocabulary.
	ring := reg.TraceRing()
	if ring.Len() > ring.Cap() {
		t.Errorf("ring len %d exceeds capacity %d", ring.Len(), ring.Cap())
	}
	if ring.Admitted() <= uint64(ring.Cap()) {
		t.Errorf("ring admitted %d traces, want far more than capacity %d under load", ring.Admitted(), ring.Cap())
	}
	outcomes := map[string]bool{"ok": true, "cancelled": true, "rejected": true,
		"shed": true, "degraded": true, "panic": true, "error": true}
	all := ring.Snapshot(0)
	if len(all) != ring.Len() {
		t.Errorf("snapshot returned %d records, ring holds %d", len(all), ring.Len())
	}
	for _, rec := range all {
		if rec.ID == "" || rec.Total < 0 || !outcomes[rec.Outcome] {
			t.Errorf("inconsistent chaos trace: id=%q total=%v outcome=%q", rec.ID, rec.Total, rec.Outcome)
		}
		for _, sp := range rec.Spans {
			if sp.Start < 0 || sp.End < sp.Start || sp.End > int64(rec.Total) {
				t.Errorf("trace %s: span %s [%d,%d) outside [0,%d)", rec.ID, sp.Stage, sp.Start, sp.End, int64(rec.Total))
			}
		}
	}
	if len(all) > 1 {
		cut := all[len(all)/2].Total
		for _, rec := range ring.Snapshot(cut) {
			if rec.Total < cut {
				t.Errorf("threshold %v leaked a %v trace", cut, rec.Total)
			}
		}
	}
}
