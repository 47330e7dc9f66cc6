package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"stsk"
	"stsk/serve"
)

// TestRunSIGTERMDrain drives the daemon's full lifecycle in-process:
// boot with a preloaded plan, park one solve at the coalescer's dispatch
// with an injected latency, deliver SIGTERM mid-flight, and assert the
// drain contract — /healthz flips to 503 "draining", late arrivals
// bounce with 503 while the listener is still open (the grace window),
// the in-flight solve completes 200 and bitwise identical to
// Plan.Solve, and run exits 0.
func TestRunSIGTERMDrain(t *testing.T) {
	addrFile := filepath.Join(t.TempDir(), "addr")
	sig := make(chan os.Signal, 1)
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-addr-file", addrFile,
			"-faults", "coalescer.dispatch:latency:count=1,d=150ms", // park the solve long enough to SIGTERM past it
			"-drain-grace", "150ms",
			"-preload", `{"name":"g3","class":"grid3d","n":1200}`,
		}, sig)
	}()

	var base string
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); {
		if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
			base = "http://" + string(raw)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if base == "" {
		t.Fatal("daemon never wrote its bound address")
	}

	// The reference solution the parked request must match bitwise.
	mat, err := stsk.Generate("grid3d", 1200)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := stsk.Build(mat, stsk.STS3)
	if err != nil {
		t.Fatal(err)
	}
	xTrue := make([]float64, plan.N())
	for i := range xTrue {
		xTrue[i] = math.Sin(float64(i))
	}
	b := plan.RHSFor(xTrue)
	want, err := plan.Solve(b)
	if err != nil {
		t.Fatal(err)
	}

	// In-flight solve: its panel parks 150ms at dispatch, so SIGTERM lands
	// while it is in flight.
	type result struct {
		code int
		x    []float64
		err  error
	}
	resc := make(chan result, 1)
	go func() {
		raw, _ := json.Marshal(serve.SolveRequest{Plan: "g3", B: b})
		resp, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(raw))
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		r := result{code: resp.StatusCode}
		if resp.StatusCode == http.StatusOK {
			var sr serve.SolveResponse
			r.err = json.NewDecoder(resp.Body).Decode(&sr)
			r.x = sr.X
		} else {
			io.Copy(io.Discard, resp.Body)
		}
		resc <- r
	}()

	time.Sleep(40 * time.Millisecond) // let the solve reach the queue
	sig <- syscall.SIGTERM
	time.Sleep(30 * time.Millisecond) // let run observe it and BeginDrain

	// Grace window: the listener is still open, /healthz reports draining
	// so balancers route away, and a late arrival bounces with 503.
	hresp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz during grace: %v", err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(hbody), `"draining"`) {
		t.Errorf("healthz during grace: %d %s, want 503 draining", hresp.StatusCode, hbody)
	}
	raw, _ := json.Marshal(serve.SolveRequest{Plan: "g3", B: b})
	lresp, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("late solve during grace: %v", err)
	}
	lbody, _ := io.ReadAll(lresp.Body)
	lresp.Body.Close()
	if lresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("late solve during grace: %d %s, want 503", lresp.StatusCode, lbody)
	}
	if lresp.Header.Get("Retry-After") == "" {
		t.Error("late solve during grace lost its Retry-After hint")
	}

	// The parked solve completes, and bitwise.
	r := <-resc
	if r.err != nil {
		t.Fatalf("in-flight solve: %v", r.err)
	}
	if r.code != http.StatusOK {
		t.Fatalf("in-flight solve: status %d, want 200 (drain must complete queued work)", r.code)
	}
	if len(r.x) != len(want) {
		t.Fatalf("in-flight solve: %d values, want %d", len(r.x), len(want))
	}
	for i := range r.x {
		if r.x[i] != want[i] {
			t.Fatalf("in-flight solve: bit difference at %d", i)
		}
	}

	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("run exited %d, want 0", code)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("run never exited after SIGTERM — drain deadlock")
	}
}

// TestRunBadFaultSpec: a malformed -faults spec refuses to boot with
// exit code 2 instead of serving with undefined chaos.
func TestRunBadFaultSpec(t *testing.T) {
	sig := make(chan os.Signal)
	if code := run([]string{"-faults", "nonsense-spec"}, sig); code != 2 {
		t.Fatalf("run with bad -faults exited %d, want 2", code)
	}
}

// TestNewLoggerFormats pins the -log-format/-log-level flag surface:
// both handlers build, levels parse case-insensitively, and unknown
// values refuse with an error instead of silently defaulting.
func TestNewLoggerFormats(t *testing.T) {
	for _, ok := range []struct{ format, level string }{
		{"text", "debug"}, {"json", "info"}, {"TEXT", "Warn"}, {"", ""}, {"json", "error"},
	} {
		if _, err := newLogger(ok.format, ok.level); err != nil {
			t.Errorf("newLogger(%q, %q): %v", ok.format, ok.level, err)
		}
	}
	if _, err := newLogger("xml", "info"); err == nil {
		t.Error("newLogger accepted -log-format xml")
	}
	if _, err := newLogger("text", "loud"); err == nil {
		t.Error("newLogger accepted -log-level loud")
	}
}

// TestLogRequestsMiddleware pins the Debug request log: one line per
// request carrying method, path, status, and the handler's trace ID —
// and nothing at all when the level floor is Info.
func TestLogRequestsMiddleware(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-STS-Trace-Id", "logtest1")
		w.WriteHeader(http.StatusTeapot)
		w.Write([]byte("short and stout"))
	})
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	ts := httptest.NewServer(logRequests(logger, inner))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/teapot")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTeapot {
		t.Fatalf("status %d through middleware, want 418", resp.StatusCode)
	}
	line := buf.String()
	for _, want := range []string{"msg=request", "status=418", "path=/v1/teapot", "traceId=logtest1"} {
		if !strings.Contains(line, want) {
			t.Errorf("request log %q missing %q", line, want)
		}
	}

	// Info floor: the middleware must not even wrap the writer.
	buf.Reset()
	quiet := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo}))
	qs := httptest.NewServer(logRequests(quiet, inner))
	defer qs.Close()
	if resp, err := http.Get(qs.URL + "/"); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if buf.Len() != 0 {
		t.Errorf("request logged at Info floor: %q", buf.String())
	}
}

// TestRunDebugListener boots the daemon with the diagnostics listener
// and JSON logs: pprof and the mirrored /metrics + /debug/traces views
// answer on -debug-addr, a traced solve lands in the ring, and SIGTERM
// still exits 0.
func TestRunDebugListener(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	dbgFile := filepath.Join(dir, "dbg")
	sig := make(chan os.Signal, 1)
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-addr-file", addrFile,
			"-debug-addr", "127.0.0.1:0",
			"-debug-addr-file", dbgFile,
			"-log-format", "json",
			"-log-level", "debug",
			"-trace-ring", "16",
			"-preload", `{"name":"g3","class":"grid3d","n":800}`,
		}, sig)
	}()
	var base, dbg string
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); {
		a, _ := os.ReadFile(addrFile)
		d, _ := os.ReadFile(dbgFile)
		if len(a) > 0 && len(d) > 0 {
			base, dbg = "http://"+string(a), "http://"+string(d)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if base == "" || dbg == "" {
		t.Fatal("daemon never wrote its bound addresses")
	}

	mat, err := stsk.Generate("grid3d", 800)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := stsk.Build(mat, stsk.STS3)
	if err != nil {
		t.Fatal(err)
	}
	b := plan.RHSFor(make([]float64, plan.N()))
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	raw, _ := json.Marshal(serve.SolveRequest{Plan: "g3", B: b})
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/solve", bytes.NewReader(raw))
	req.Header.Set("X-STS-Trace-Id", "dbgtest7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-STS-Trace-Id"); got != "dbgtest7" {
		t.Errorf("trace ID echo = %q, want dbgtest7", got)
	}

	for path, want := range map[string]string{
		"/debug/traces":        `"id":"dbgtest7"`,
		"/metrics":             "stsserve_stage_latency_seconds_bucket",
		"/debug/pprof/cmdline": "stsserve",
	} {
		dresp, err := http.Get(dbg + path)
		if err != nil {
			t.Fatalf("debug %s: %v", path, err)
		}
		body, _ := io.ReadAll(dresp.Body)
		dresp.Body.Close()
		if dresp.StatusCode != http.StatusOK {
			t.Errorf("debug %s: status %d", path, dresp.StatusCode)
		} else if !strings.Contains(string(body), want) {
			t.Errorf("debug %s: body missing %q", path, want)
		}
	}

	sig <- syscall.SIGTERM
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("run exited %d, want 0", code)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("run never exited after SIGTERM")
	}
}
