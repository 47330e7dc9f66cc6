// Command stsserve runs the solve-as-a-service daemon: an HTTP JSON API
// over a concurrent plan registry whose coalescer packs concurrent
// single-RHS solve requests onto the blocked panel kernels — the
// long-running, many-solves-per-ordering traffic shape the STS-k paper's
// amortisation argument targets. A panel takes the requests already
// queued, up to the solver's panel width of 8, and is sealed after one
// scheduler yield, so a lone request is never held open for company.
//
// Usage:
//
//	stsserve -addr :8080
//	stsserve -preload '{"name":"g3","class":"grid3d","n":50000,"method":"sts3"}'
//	stsserve -budget-mb 512 -queue 512
//	stsserve -faults 'engine.job:panic:p=0.01' -fault-seed 7   # chaos drills
//	stsserve -debug-addr :6060 -log-format json                # diagnostics
//
// Then:
//
//	curl -X POST localhost:8080/v1/plans -d '{"name":"g3","class":"grid3d","n":50000}'
//	curl -X POST localhost:8080/v1/solve -d '{"plan":"g3","b":[...]}'
//	curl -X PUT localhost:8080/v1/plans/g3/values -d '{"values":[...],"ifVersion":1}'
//	curl localhost:8080/metrics
//	curl localhost:8080/debug/traces?thresholdMs=5
//	curl localhost:6060/debug/pprof/profile?seconds=5 -o cpu.pb.gz
//
// The PUT swaps new matrix values into the plan's fixed sparsity
// (numeric refactorization): symbolic work is reused, in-flight solves
// finish on the old values, and the plan's value version — reported in
// GET /v1/plans and the stsserve_plan_version gauge — is bumped.
//
// Every solve carries a lifecycle trace (admission → queue wait →
// coalesce → dispatch → kernel sweep → serialize): per-stage latency
// lands in the stsserve_stage_latency_seconds histograms at /metrics,
// slow requests are retained in a ring served at /debug/traces, and the
// effective trace ID is echoed in the X-STS-Trace-Id response header.
// -trace-slow sets the retention floor and -trace-ring the ring size.
// -debug-addr opens a second listener with net/http/pprof plus the
// /metrics and /debug/traces views, so profiling traffic never competes
// with solve traffic on the serving listener.
//
// Logs are structured (log/slog): -log-format picks text or json,
// -log-level the floor (debug enables per-request logs stamped with the
// trace ID).
//
// SIGINT/SIGTERM trigger a graceful drain in load-balancer-friendly
// order: /healthz flips to 503 "draining" and new requests start
// bouncing immediately (BeginDrain), the -drain-grace window lets
// balancers observe the flip and stop routing here, then the listener
// shuts down, in-flight and queued solves complete, solver pools close,
// and the process exits 0.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"stsk/internal/faultinject"
	"stsk/serve"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], sig))
}

// newLogger builds the process logger from the -log-format/-log-level
// flags. Output goes to stderr, matching the old log.Printf behaviour so
// smoke harnesses keep capturing the same stream.
func newLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info", "":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("-log-level %q: want debug, info, warn, or error", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text", "":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format %q: want text or json", format)
	}
}

// statusWriter captures the response status for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// logRequests is the Debug-level request log middleware: one line per
// request with method, path, status, duration, and the lifecycle trace
// ID the handler stamped on the response — the handle that joins a log
// line to its /debug/traces breakdown. Free when debug logging is off.
func logRequests(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !logger.Enabled(r.Context(), slog.LevelDebug) {
			next.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		logger.Debug("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"durationMs", float64(time.Since(start).Microseconds())/1000,
			"traceId", sw.Header().Get("X-STS-Trace-Id"),
			"remote", r.RemoteAddr)
	})
}

// startDebug opens the -debug-addr diagnostics listener: net/http/pprof
// under /debug/pprof/, plus the delegate's /metrics and /debug/traces so
// a profiling session has the latency surfaces next to the profiles.
func startDebug(logger *slog.Logger, addr, addrFile string, delegate http.Handler) (*http.Server, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/traces", delegate)
	mux.Handle("/metrics", delegate)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debug listen: %w", err)
	}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
			return nil, fmt.Errorf("-debug-addr-file: %w", err)
		}
	}
	hs := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("debug server", "err", err)
		}
	}()
	logger.Info("debug listening", "addr", ln.Addr().String())
	return hs, nil
}

// run is the daemon body, factored off main so tests can drive the full
// boot → serve → SIGTERM → drain lifecycle in-process and assert on the
// exit code.
func run(args []string, sig <-chan os.Signal) int {
	fs := flag.NewFlagSet("stsserve", flag.ExitOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		addrFile   = fs.String("addr-file", "", "write the bound listen address to this file (tests and :0 ports)")
		budgetMB   = fs.Int64("budget-mb", 1024, "LRU byte budget for resident plans (MiB)")
		queue      = fs.Int("queue", 256, "per-coalescer request queue bound (admission control)")
		drainFor   = fs.Duration("drain-timeout", 15*time.Second, "graceful shutdown bound")
		drainGrace = fs.Duration("drain-grace", 0, "pause between flipping /healthz to draining and closing the listener")
		faults     = fs.String("faults", "", "deterministic fault-injection spec for chaos drills (point:mode[:key=val,...];...)")
		faultSeed  = fs.Uint64("fault-seed", 1, "fault-injection decision seed")
		snapDir    = fs.String("snapshot-dir", "", "persist built plans here and warm-start from it at boot (empty = no persistence)")
		route      = fs.String("route", "", "run as a router over these comma-separated replica URLs instead of serving plans")
		hedgeAfter = fs.Duration("hedge-after", 25*time.Millisecond, "router: hedge a solve to the next replica after this latency (negative disables)")
		healthIvl  = fs.Duration("health-interval", 500*time.Millisecond, "router: replica /healthz probe period")
		logFormat  = fs.String("log-format", "text", "log output format: text or json")
		logLevel   = fs.String("log-level", "info", "log level floor: debug, info, warn, or error (debug adds per-request logs)")
		debugAddr  = fs.String("debug-addr", "", "open a diagnostics listener here (net/http/pprof, /metrics, /debug/traces); empty = off")
		debugFile  = fs.String("debug-addr-file", "", "write the bound debug listen address to this file")
		traceRing  = fs.Int("trace-ring", 256, "slow-trace ring capacity served at /debug/traces")
		traceSlow  = fs.Duration("trace-slow", 0, "retain only traces at least this long end to end (0 = retain all)")
	)
	var preloads []serve.PlanSpec
	fs.Func("preload", "plan spec JSON to register at boot (repeatable)", func(v string) error {
		var spec serve.PlanSpec
		if err := json.Unmarshal([]byte(v), &spec); err != nil {
			return err
		}
		preloads = append(preloads, spec)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stsserve:", err)
		return 2
	}

	if *route != "" {
		return runRouter(logger, *route, *addr, *addrFile, *hedgeAfter, *healthIvl, *drainFor, sig)
	}

	if *faults != "" {
		if err := faultinject.Enable(*faults, *faultSeed); err != nil {
			logger.Error("-faults flag invalid", "err", err)
			return 2
		}
		defer faultinject.Disable()
		logger.Warn("CHAOS: fault injection armed", "spec", *faults, "seed", *faultSeed)
	}

	if *snapDir != "" {
		if err := os.MkdirAll(*snapDir, 0o755); err != nil {
			logger.Error("-snapshot-dir unusable", "err", err)
			return 1
		}
	}
	reg := serve.NewRegistry(serve.Config{
		BudgetBytes: *budgetMB << 20,
		QueueCap:    *queue,
		SnapshotDir: *snapDir,
		TraceRing:   *traceRing,
		TraceSlow:   *traceSlow,
	})
	if *snapDir != "" {
		start := time.Now()
		loaded, err := reg.WarmStart()
		if err != nil {
			logger.Error("warm start failed", "err", err)
			reg.Close()
			return 1
		}
		if loaded > 0 {
			logger.Info("warm-started plans", "count", loaded, "dir", *snapDir,
				"duration", time.Since(start).Round(time.Millisecond).String())
		}
	}
	for _, spec := range preloads {
		start := time.Now()
		info, err := reg.Register(spec)
		if err != nil {
			logger.Error("preload failed", "plan", spec.Name, "err", err)
			reg.Close()
			return 1
		}
		logger.Info("preloaded plan", "plan", spec.Name, "n", info.N, "nnz", info.NNZ,
			"packs", info.Packs, "duration", time.Since(start).Round(time.Millisecond).String())
	}
	srv := serve.NewServer(reg)
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		return 1
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			logger.Error("-addr-file write failed", "err", err)
			ln.Close()
			return 1
		}
	}
	var dbg *http.Server
	if *debugAddr != "" {
		dbg, err = startDebug(logger, *debugAddr, *debugFile, srv)
		if err != nil {
			logger.Error("debug listener failed", "err", err)
			ln.Close()
			return 1
		}
	}

	// Header/idle timeouts shed slow-loris connections; the generous
	// read/write bounds still accommodate multi-megabyte solve bodies.
	hs := &http.Server{
		Handler:           logRequests(logger, srv),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	logger.Info("listening", "addr", ln.Addr().String(), "queue", *queue, "budgetMiB", *budgetMB)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve failed", "err", err)
			return 1
		}
		return 0
	case s := <-sig:
		logger.Info("draining on signal", "signal", s.String(), "grace", drainGrace.String(), "bound", drainFor.String())
		// Flip first, close later: /healthz answers 503 "draining" and new
		// work bounces with Retry-After while the listener is still open,
		// so balancers drain us instead of seeing connection resets.
		srv.BeginDrain()
		if *drainGrace > 0 {
			time.Sleep(*drainGrace)
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
		err := hs.Shutdown(ctx) // stop accepting; wait out in-flight handlers
		cancel()
		if err != nil {
			logger.Error("shutdown incomplete", "err", err)
		}
		if dbg != nil {
			dbg.Close()
		}
		srv.Close() // drain coalescers, close solver pools
		logger.Info("drained, exiting")
		return 0
	}
}

// runRouter is the -route mode body: no registry, no plans — one
// consistent-hash router process over a fleet of stsserve replicas.
func runRouter(logger *slog.Logger, route, addr, addrFile string, hedgeAfter, healthIvl, drainFor time.Duration, sig <-chan os.Signal) int {
	var backends []string
	for _, b := range strings.Split(route, ",") {
		if b = strings.TrimSpace(b); b != "" {
			backends = append(backends, b)
		}
	}
	rt, err := serve.NewRouter(serve.RouterConfig{
		Backends:       backends,
		HedgeAfter:     hedgeAfter,
		HealthInterval: healthIvl,
	})
	if err != nil {
		logger.Error("-route flag invalid", "err", err)
		return 2
	}
	defer rt.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		logger.Error("listen failed", "addr", addr, "err", err)
		return 1
	}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			logger.Error("-addr-file write failed", "err", err)
			ln.Close()
			return 1
		}
	}
	hs := &http.Server{
		Handler:           logRequests(logger, rt),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	logger.Info("routing", "addr", ln.Addr().String(), "replicas", len(backends),
		"hedge", hedgeAfter.String(), "probe", healthIvl.String())

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve failed", "err", err)
			return 1
		}
		return 0
	case s := <-sig:
		logger.Info("draining router on signal", "signal", s.String(), "bound", drainFor.String())
		ctx, cancel := context.WithTimeout(context.Background(), drainFor)
		err := hs.Shutdown(ctx)
		cancel()
		if err != nil {
			logger.Error("shutdown incomplete", "err", err)
		}
		logger.Info("drained, exiting")
		return 0
	}
}
