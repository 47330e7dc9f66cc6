package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stsk"
	"stsk/serve"
)

// The http-update workload: serve.NewServer on a loopback listener with
// write-behind snapshots, one grid3d plan, and httpConns keep-alive
// connections in a closed loop. One op in httpUpdateEvery is a values PUT
// alternating the matrix between ×1 and ×4; the rest are solves. JSON
// decode/encode and the registry write path (Refactor, IC(0) drop and lazy
// re-factor, snapshot) work here and nowhere else.
var httpSpec = serve.PlanSpec{Name: "grid3d", Class: "grid3d", N: 8000, Method: "sts3"}

const (
	httpConns       = 2
	httpUpdateEvery = 25
	httpIC0P        = 0.25
	httpUpperP      = 0.5
	httpPool        = 4
)

// Span names of the http-update operation trees.
const (
	spanSolveOp       = "op.solve"
	spanUpdateOp      = "op.update"
	spanHandlerSolve  = "serve.Server.ServeHTTP.solve"
	spanHandlerUpdate = "serve.Server.ServeHTTP.values"
	spanHeader        = "X-Bench-Span"
)

type httpUpdateWorkload struct {
	seed    int64
	spec    serve.PlanSpec
	scratch string // parent of the per-set-up snapshot directories

	// Prepared inputs: right-hand sides as JSON arrays, the expected
	// solution arrays per value scale, and the two PUT bodies.
	bJSON   [][]byte
	want    [2][2][2][][]byte    // [scale ×1/×4][ic0][upper][pool]
	wantF   [2][2][2][][]float64 // the same, as numbers
	valBody [2][]byte

	dir     string
	reg     *serve.Registry
	hs      *http.Server
	served  chan struct{}
	client  *http.Client
	base    string
	tracer  atomic.Pointer[tracer]
	version uint64 // plan value version after registration

	next             atomic.Int64 // operation counter
	updMu            sync.Mutex   // one values PUT in flight at a time
	started, applied atomic.Int64 // PUTs sent / acknowledged since set-up
	reqBytes         atomic.Int64
	respBytes        atomic.Int64
	solves           atomic.Int64
	from, to         serveCounters
}

func newHTTPUpdate(seed int64, scratch string) *httpUpdateWorkload {
	return &httpUpdateWorkload{seed: seed, spec: httpSpec, scratch: scratch}
}

func (w *httpUpdateWorkload) prepare(b *buildRun) error {
	var mat *stsk.Matrix
	var plan *stsk.Plan
	err := b.call("stsk.Generate", &b.times.generate, func() (err error) {
		mat, err = stsk.Generate(w.spec.Class, w.spec.N)
		return err
	})
	if err != nil {
		return err
	}
	err = b.call("stsk.Build", &b.times.order, func() (err error) {
		plan, err = stsk.Build(mat, stsk.STS3)
		return err
	})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(uint64(w.seed), 2000))
	bs := make([][]float64, httpPool)
	for k := range bs {
		bs[k] = make([]float64, plan.N())
		for i := range bs[k] {
			bs[k][i] = 2*rng.Float64() - 1
		}
		raw, err := json.Marshal(bs[k])
		if err != nil {
			return err
		}
		w.bJSON = append(w.bJSON, raw)
	}
	vals := mat.Values()
	x4 := make([]float64, len(vals))
	for i, v := range vals {
		x4[i] = 4 * v
	}
	for s, vs := range [][]float64{vals, x4} {
		if err := plan.Refactor(vs); err != nil {
			return err
		}
		// Only the ×1 factor counts as a build; the ×4 one is reference-only.
		var ic *stsk.Plan
		if s == 0 {
			err = b.call("stsk.Plan.IC0", &b.times.ic0, func() (err error) {
				ic, err = plan.IC0()
				return err
			})
		} else {
			ic, err = plan.IC0()
		}
		if err != nil {
			return err
		}
		for v, pl := range []*stsk.Plan{plan, ic} {
			for _, b := range bs {
				lo, err := pl.Solve(b)
				if err != nil {
					return err
				}
				up, err := pl.SolveUpper(b)
				if err != nil {
					return err
				}
				for u, x := range [][]float64{lo, up} {
					raw, err := json.Marshal(x)
					if err != nil {
						return err
					}
					w.want[s][v][u] = append(w.want[s][v][u], raw)
					w.wantF[s][v][u] = append(w.wantF[s][v][u], x)
				}
			}
		}
		if w.valBody[s], err = json.Marshal(serve.UpdateValuesRequest{Values: vs}); err != nil {
			return err
		}
	}
	return nil
}

func (w *httpUpdateWorkload) setup(b *buildRun, tl *tally) error {
	dir, err := os.MkdirTemp(w.scratch, "snapshots-")
	if err != nil {
		return err
	}
	w.dir = dir
	w.reg = serve.NewRegistry(serve.Config{SnapshotDir: dir})
	srv := serve.NewServer(w.reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: &spanHandler{next: srv, tr: &w.tracer}}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.hs.Serve(ln) // returns http.ErrServerClosed at teardown
	}()
	w.client = &http.Client{Timeout: opTimeout, Transport: &http.Transport{
		MaxConnsPerHost:     httpConns,
		MaxIdleConnsPerHost: httpConns,
		DisableCompression:  true,
	}}
	w.started.Store(0)
	w.applied.Store(0)

	spec, err := json.Marshal(w.spec)
	if err != nil {
		return err
	}
	var body []byte
	err = b.call("POST /v1/plans", &b.times.register, func() error {
		var status int
		var err error
		body, status, err = w.do(http.MethodPost, "/v1/plans", spec, "")
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("register: HTTP %d: %s", status, body)
		}
		return err
	})
	if err != nil {
		return err
	}
	var info serve.PlanInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return fmt.Errorf("register: %w", err)
	}
	w.version = info.Version
	for v := range 2 {
		for u := range 2 {
			body, status, err := w.do(http.MethodPost, "/v1/solve", w.solveBody(v == 1, u == 1, 0), "")
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("solve: HTTP %d", status)
			}
			tl.record(err, w.check(body, v, u, 0, 0, 0))
		}
	}
	return nil
}

// solveBody assembles a /v1/solve request around a prepared right-hand side.
func (w *httpUpdateWorkload) solveBody(ic0, upper bool, i int) []byte {
	var sb strings.Builder
	sb.WriteString(`{"plan":` + strconv.Quote(w.spec.Name))
	if upper {
		sb.WriteString(`,"upper":true`)
	}
	if ic0 {
		sb.WriteString(`,"variant":"` + serve.VariantIC0 + `"`)
	}
	sb.WriteString(`,"b":`)
	return append(append([]byte(sb.String()), w.bJSON[i]...), '}')
}

// do sends one request and reads the whole response.
func (w *httpUpdateWorkload) do(method, path string, body []byte, span string) ([]byte, int, error) {
	req, err := http.NewRequest(method, w.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if span != "" {
		req.Header.Set(spanHeader, span)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return out, resp.StatusCode, err
}

// check reports whether a solve response carries exactly the reference
// answer for a value version live during the request: versions lo..hi
// (updates since set-up), where even versions hold the ×1 values and odd
// ones ×4. The response's solution array is compared as text first, which
// is exact because encoding/json prints each float64 in its shortest
// round-tripping form; any other layout is decoded and compared bitwise.
func (w *httpUpdateWorkload) check(body []byte, v, u, i int, lo, hi int64) bool {
	var decoded *serve.SolveResponse
	for k := lo; k <= min(hi, lo+1); k++ {
		s := int(k % 2)
		if rest, ok := bytes.CutPrefix(body, []byte(`{"x":`)); ok {
			if tail, ok := bytes.CutPrefix(rest, w.want[s][v][u][i]); ok && len(tail) > 0 && tail[0] == ',' {
				return true
			}
		}
		if decoded == nil {
			decoded = new(serve.SolveResponse)
			if json.Unmarshal(body, decoded) != nil {
				return false
			}
		}
		if sameBits(decoded.X, w.wantF[s][v][u][i]) {
			return true
		}
	}
	return false
}

func (w *httpUpdateWorkload) drive(d time.Duration, win *window, tl *tally) {
	w.tracer.Store(win.tr)
	defer w.tracer.Store(nil)
	w.solves.Store(0)
	w.reqBytes.Store(0)
	w.respBytes.Store(0)
	w.from = readServe(w.reg)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for range httpConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := w.next.Add(1) - 1
				if k%httpUpdateEvery == httpUpdateEvery-1 {
					w.update(win, tl)
				} else {
					w.solve(k, win, tl)
				}
				win.done.Add(1)
			}
		}()
	}
	wg.Wait()
	w.to = readServe(w.reg)
	if tr := win.tr; tr != nil {
		win.breakdown = map[string]map[string]float64{
			spanHandlerSolve: stageBreakdown(w.from, w.to, w.solves.Load(), mean(tr.durations(spanHandlerSolve)), httpStages),
		}
	}
}

// httpStages are the stages recorded directly inside a solve handler.
var httpStages = append(registryStages[:len(registryStages):len(registryStages)], httpOnlyStages...)

// solve sends operation k's solve, drawn from (seed, k) alone.
func (w *httpUpdateWorkload) solve(k int64, win *window, tl *tally) {
	rng := rand.New(rand.NewPCG(uint64(w.seed), uint64(k)))
	ic0 := rng.Float64() < httpIC0P
	upper := rng.Float64() < httpUpperP
	i := rng.IntN(httpPool)
	v, u := 0, 0
	if ic0 {
		v = 1
	}
	if upper {
		u = 1
	}
	body := w.solveBody(ic0, upper, i)
	tr := win.tr
	op := tr.newOp()
	lo := w.applied.Load()
	t0 := time.Now()
	root := tr.begin(op, -1, spanSolveOp, t0)
	resp, status, err := w.do(http.MethodPost, "/v1/solve", body, spanRef(tr, op, root))
	t1 := time.Now()
	tr.end(root, t1)
	hi := w.started.Load()
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("solve: HTTP %d", status)
	}
	if tl.record(err, w.check(resp, v, u, i, lo, hi)) {
		win.lat.add(float64(t1.Sub(t0).Nanoseconds()) / 1e6)
	}
	w.solves.Add(1)
	w.reqBytes.Add(int64(len(body)))
	w.respBytes.Add(int64(len(resp)))
}

// update sends the next values PUT; PUTs are serialised so the version
// each one produces is known.
func (w *httpUpdateWorkload) update(win *window, tl *tally) {
	w.updMu.Lock()
	defer w.updMu.Unlock()
	n := w.started.Add(1) // the version count this PUT produces
	tr := win.tr
	op := tr.newOp()
	t0 := time.Now()
	root := tr.begin(op, -1, spanUpdateOp, t0)
	resp, status, err := w.do(http.MethodPut, "/v1/plans/"+w.spec.Name+"/values", w.valBody[n%2], spanRef(tr, op, root))
	t1 := time.Now()
	tr.end(root, t1)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("update: HTTP %d: %s", status, resp)
	}
	var info serve.PlanInfo
	if err == nil {
		err = json.Unmarshal(resp, &info)
	}
	w.applied.Add(1)
	if tl.record(err, info.Version == w.version+uint64(n)) {
		win.upd.add(float64(t1.Sub(t0).Nanoseconds()) / 1e6)
	}
}

func (w *httpUpdateWorkload) updates(*tally) []float64 { return nil }

func (w *httpUpdateWorkload) layers(win *window) map[string]float64 {
	tr := win.tr
	m := serveLayers(w.from, w.to, win.depth)
	m["http.handler_ms_p50"] = median(tr.durations(spanHandlerSolve))
	m["http.update_handler_ms_p50"] = median(tr.durations(spanHandlerUpdate))
	m["http.transport_ms_p50"] = median(tr.childFree(spanSolveOp, spanHandlerSolve))
	if n := w.solves.Load(); n > 0 {
		m["http.request_bytes"] = float64(w.reqBytes.Load()) / float64(n)
		m["http.response_bytes"] = float64(w.respBytes.Load()) / float64(n)
	}
	return m
}

func (w *httpUpdateWorkload) teardown() {
	if w.hs != nil {
		w.hs.Close()
		<-w.served
		w.hs = nil
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
		w.client = nil
	}
	if w.reg != nil {
		w.reg.Close()
		w.reg = nil
	}
	if w.dir != "" {
		if err := os.RemoveAll(w.dir); err != nil {
			fmt.Fprintln(os.Stderr, "stskbench: remove snapshot scratch:", err)
		}
		w.dir = ""
	}
}

func (w *httpUpdateWorkload) queueDepth() func() int { return w.reg.QueueDepth }

// spanRef names the span a request's handler span hangs under.
func spanRef(tr *tracer, op int64, parent int) string {
	if tr == nil {
		return ""
	}
	return fmt.Sprintf("%d/%d", op, parent)
}

// spanHandler is the benchmark's own wrapper around serve.Server: while a
// traced window runs it records a span around each ServeHTTP call, under
// the client span named in the request header.
type spanHandler struct {
	next http.Handler
	tr   *atomic.Pointer[tracer]
}

func (h *spanHandler) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.next.ServeHTTP(rw, r)
	tr := h.tr.Load()
	if tr == nil {
		return
	}
	opStr, parentStr, ok := strings.Cut(r.Header.Get(spanHeader), "/")
	op, err1 := strconv.ParseInt(opStr, 10, 64)
	parent, err2 := strconv.Atoi(parentStr)
	if !ok || errors.Join(err1, err2) != nil {
		return
	}
	name := spanHandlerSolve
	if r.Method == http.MethodPut {
		name = spanHandlerUpdate
	}
	tr.add(op, parent, name, t0, time.Now())
}
