package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stsk/internal/panicsafe"
	"stsk/internal/trace"
)

// Router is the scale-out front of a fleet of stsserve replicas: one
// stdlib-HTTP process that owns no plans itself and routes the v1 API
// across N backends (ROADMAP item 4b, `stsserve -route`).
//
//   - Solve requests are routed by consistent hashing on the plan name
//     (an FNV-64a ring with virtual nodes), so each plan's working set
//     stays hot on one replica while the namespace spreads over the
//     fleet, and adding a replica only remaps ~1/N of the plans.
//   - Replica health is probed at /healthz on an interval; an unhealthy
//     (dead, draining, degraded) replica is ejected from preference and
//     requests fail over along the ring. A transport error during a
//     forward ejects passively, without waiting for the next probe.
//   - Tail latency is cut by hedging: when a solve has not answered
//     within HedgeAfter, the same request is launched on the next
//     replica of the ring and the first acceptable response wins (the
//     losers' contexts are cancelled). Solves are idempotent, so a
//     hedge can never double-apply work.
//   - Registrations and value updates are broadcast to every healthy
//     replica, so any of them can serve (or warm-rebuild) any plan when
//     failover lands on it; X-STS-Priority passes through untouched, so
//     brownout shedding composes per replica.
//
// The router refuses with 502/503 only when every candidate replica
// failed or none exists; it never originates a 500 itself.
type Router struct {
	cfg     RouterConfig
	client  *http.Client
	mux     *http.ServeMux
	backs   []*routerBackend
	ring    []ringEntry
	met     RouterMetrics
	stop    chan struct{}
	stopped sync.WaitGroup
	once    sync.Once
}

// RouterConfig tunes a Router. Zero values select the defaults noted on
// each field.
type RouterConfig struct {
	// Backends are the replica base URLs (e.g. "http://10.0.0.7:8377");
	// a bare host:port gets "http://" prepended. At least one is
	// required.
	Backends []string

	// HedgeAfter is how long a routed solve may go unanswered before the
	// same request is hedged to the next replica. Default 25ms; negative
	// disables hedging.
	HedgeAfter time.Duration

	// HealthInterval is the /healthz probe period. Default 500ms.
	HealthInterval time.Duration
}

// vnodesPerBackend is the number of virtual nodes each backend places on
// the hash ring (more = smoother key spread).
const vnodesPerBackend = 64

func (c RouterConfig) withDefaults() RouterConfig {
	if c.HedgeAfter == 0 {
		c.HedgeAfter = 25 * time.Millisecond
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	return c
}

// RouterMetrics counts the router's own traffic, separate from any
// registry metrics (the router holds no registry).
type RouterMetrics struct {
	Requests   atomic.Int64 // solve requests received
	Hedges     atomic.Int64 // hedge attempts launched after HedgeAfter
	Failovers  atomic.Int64 // attempts moved to another replica after a failure
	Ejections  atomic.Int64 // backends marked unhealthy (probe or passive)
	Broadcasts atomic.Int64 // registration/value-update fan-outs
}

// routerBackend is one replica and its live health flag.
type routerBackend struct {
	base    string
	healthy atomic.Bool
}

// ringEntry is one virtual node: the hash point and the backend index.
type ringEntry struct {
	h   uint64
	idx int
}

// errNoBackends reports a router with every replica ejected.
var errNoBackends = errors.New("serve: router has no healthy backends")

// NewRouter builds the hash ring, marks every backend healthy (the
// prober and passive ejection correct that within one probe interval or
// one failed forward), and starts the health prober. Call Close to stop
// probing.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("serve: router needs at least one backend")
	}
	// The forwarding client sets no timeouts: they come from the inbound
	// request's context.
	rt := &Router{
		cfg:    cfg,
		client: &http.Client{},
		mux:    http.NewServeMux(),
		stop:   make(chan struct{}),
	}
	for _, b := range cfg.Backends {
		b = strings.TrimRight(strings.TrimSpace(b), "/")
		if b == "" {
			return nil, errors.New("serve: empty router backend")
		}
		if !strings.Contains(b, "://") {
			b = "http://" + b
		}
		rb := &routerBackend{base: b}
		rb.healthy.Store(true)
		rt.backs = append(rt.backs, rb)
	}
	for i, b := range rt.backs {
		for v := 0; v < vnodesPerBackend; v++ {
			rt.ring = append(rt.ring, ringEntry{h: fnv64(fmt.Sprintf("%s#%d", b.base, v)), idx: i})
		}
	}
	sort.Slice(rt.ring, func(i, j int) bool { return rt.ring[i].h < rt.ring[j].h })

	rt.mux.HandleFunc("POST /v1/solve", rt.handleSolve)
	rt.mux.HandleFunc("POST /v1/plans", rt.handleBroadcast)
	rt.mux.HandleFunc("PUT /v1/plans/{name}/values", rt.handleBroadcast)
	rt.mux.HandleFunc("GET /v1/plans", rt.handleList)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealth)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)

	rt.stopped.Add(1)
	panicsafe.Go("serve.router-prober", func() {
		defer rt.stopped.Done()
		rt.probeLoop()
	})
	return rt, nil
}

// Close stops the health prober. In-flight forwards are owned by their
// requests' contexts and finish on their own.
func (rt *Router) Close() {
	rt.once.Do(func() { close(rt.stop) })
	rt.stopped.Wait()
}

// Metrics returns the router's counters.
func (rt *Router) Metrics() *RouterMetrics { return &rt.met }

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// fnv64 hashes a string onto the ring: FNV-64a for the byte mixing, then
// a splitmix64-style finalizer. The finalizer matters — raw FNV-1a barely
// diffuses the final bytes into the high bits, and vnode labels differ
// only in their numeric suffix, which without finalization clusters a
// backend's vnodes into a few arcs and skews the key spread badly.
func fnv64(s string) uint64 {
	h := fnv.New64a()
	_, _ = io.WriteString(h, s)
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// candidates returns every backend index in routing preference order for
// one plan: the ring walk from the plan's hash point, deduplicated, with
// healthy replicas ahead of ejected ones (ejected replicas stay at the
// tail as a last resort, so a fleet that is entirely "unhealthy" — e.g.
// all brownout-degraded — still gets offered the traffic rather than
// blackholed).
func (rt *Router) candidates(plan string) []int {
	start := sort.Search(len(rt.ring), func(j int) bool { return rt.ring[j].h >= fnv64(plan) })
	seen := make([]bool, len(rt.backs))
	order := make([]int, 0, len(rt.backs))
	for k := 0; k < len(rt.ring) && len(order) < len(rt.backs); k++ {
		e := rt.ring[(start+k)%len(rt.ring)]
		if !seen[e.idx] {
			seen[e.idx] = true
			order = append(order, e.idx)
		}
	}
	out := make([]int, 0, len(order))
	for _, idx := range order {
		if rt.backs[idx].healthy.Load() {
			out = append(out, idx)
		}
	}
	for _, idx := range order {
		if !rt.backs[idx].healthy.Load() {
			out = append(out, idx)
		}
	}
	return out
}

// eject marks a backend unhealthy (passively, from a failed forward, or
// from the prober) and counts the transition.
func (rt *Router) eject(b *routerBackend) {
	if b.healthy.Swap(false) {
		rt.met.Ejections.Add(1)
	}
}

// probeLoop drives /healthz probes until Close.
func (rt *Router) probeLoop() {
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	rt.probeAll()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.probeAll()
		}
	}
}

// probeAll probes every backend once. A 200 /healthz revives an ejected
// replica; anything else — including 503 draining/degraded — ejects it.
func (rt *Router) probeAll() {
	for _, b := range rt.backs {
		//stsk:allow-background (prober owns its probes; there is no caller request to inherit from)
		ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.HealthInterval)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/healthz", nil)
		if err != nil {
			cancel()
			rt.eject(b)
			continue
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			cancel()
			rt.eject(b)
			continue
		}
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		cancel()
		if resp.StatusCode == http.StatusOK {
			b.healthy.Store(true)
		} else {
			rt.eject(b)
		}
	}
}

// captured is a fully buffered backend response, so the router can
// decide to relay or discard it after the fact (hedging needs the
// decision before any byte reaches the client).
type captured struct {
	status int
	header http.Header
	body   []byte
}

// relay writes the captured response to the client, passing through the
// content type, the backend's back-off hints, and the X-STS-* headers.
func (c *captured) relay(w http.ResponseWriter) {
	for _, k := range []string{"Content-Type", "Retry-After"} {
		if v := c.header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	for k, vs := range c.header {
		if strings.HasPrefix(k, "X-Sts-") || strings.HasPrefix(k, "X-STS-") {
			w.Header()[k] = vs
		}
	}
	w.WriteHeader(c.status)
	_, _ = w.Write(c.body)
}

// forward sends one buffered request to a backend and buffers the whole
// response.
func (rt *Router) forward(ctx context.Context, method, url string, hdr http.Header, body []byte) (*captured, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	if req.Header.Get("Content-Type") == "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxSolveBody))
	if err != nil {
		return nil, err
	}
	return &captured{status: resp.StatusCode, header: resp.Header, body: raw}, nil
}

// passHeaders picks the inbound headers a forward carries: content type
// plus every X-STS-* header (the priority passthrough the brownout
// shedding composes on).
func passHeaders(r *http.Request) http.Header {
	out := http.Header{}
	if v := r.Header.Get("Content-Type"); v != "" {
		out.Set("Content-Type", v)
	}
	for k, vs := range r.Header {
		if strings.HasPrefix(k, "X-Sts-") || strings.HasPrefix(k, "X-STS-") {
			out[k] = vs
		}
	}
	return out
}

// handleSolve routes one solve along the plan's ring order with
// failover and hedging. An attempt is accepted — and every other
// in-flight attempt cancelled — unless it died in transport or answered
// 5xx; 4xx responses (bad dimension, unknown plan, shed) relay
// faithfully, they would fail identically everywhere.
func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request) {
	rt.met.Requests.Add(1)
	body, err := readBody(w, r, maxSolveBody)
	var req SolveRequest
	if err == nil {
		// The backends' own decoder: a body a replica would refuse is
		// refused here with the same 400, and one it would take is routed.
		req, err = decodeSolve(body)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err, 0)
		return
	}
	cands := rt.candidates(req.Plan)
	hdr := passHeaders(r)
	// Stamp a trace ID before fanning out so every hedged attempt — and
	// the backend trace each one spawns — shares the client's ID, or one
	// minted here when the client supplied none. The accepted attempt's
	// response echoes it back via the relayed X-STS-Trace-Id header.
	if hdr.Get("X-Sts-Trace-Id") == "" {
		hdr.Set("X-Sts-Trace-Id", trace.NewID())
	}
	ctx := r.Context()

	type attempt struct {
		cand int
		resp *captured
		err  error
	}
	results := make(chan attempt, len(cands))
	cancels := make([]context.CancelFunc, len(cands))
	defer func() {
		for _, c := range cancels {
			if c != nil {
				c()
			}
		}
	}()
	launched := 0
	launch := func() {
		i := launched
		launched++
		b := rt.backs[cands[i]]
		actx, cancel := context.WithCancel(ctx)
		cancels[i] = cancel
		panicsafe.Go("serve.router-solve", func() {
			resp, err := rt.forward(actx, http.MethodPost, b.base+"/v1/solve", hdr, body)
			results <- attempt{cand: i, resp: resp, err: err}
		})
	}
	launch()

	hedge := time.NewTimer(hedgeDelay(rt.cfg.HedgeAfter))
	defer hedge.Stop()
	var last attempt
	for pending := 1; pending > 0; {
		select {
		case res := <-results:
			pending--
			b := rt.backs[cands[res.cand]]
			if res.err == nil && res.resp.status < http.StatusInternalServerError {
				res.resp.relay(w)
				return
			}
			// Transport death or a 5xx: eject passively and fail over.
			if res.err != nil && ctx.Err() == nil {
				rt.eject(b)
			}
			last = res
			if launched < len(cands) && ctx.Err() == nil {
				rt.met.Failovers.Add(1)
				launch()
				pending++
			}
		case <-hedge.C:
			if launched < len(cands) && ctx.Err() == nil {
				rt.met.Hedges.Add(1)
				launch()
				pending++
				hedge.Reset(hedgeDelay(rt.cfg.HedgeAfter))
			}
		case <-ctx.Done():
			writeError(w, statusFor(ctx.Err()), ctx.Err(), 0)
			return
		}
	}
	// Every candidate failed. A buffered backend 5xx relays as-is (it is
	// the replica's error, not ours); pure transport failure is a 502.
	if last.resp != nil {
		last.resp.relay(w)
		return
	}
	if len(cands) == 0 {
		writeError(w, http.StatusServiceUnavailable, errNoBackends, time.Second)
		return
	}
	writeError(w, http.StatusBadGateway,
		fmt.Errorf("serve: router: all %d replicas failed for plan %q: %v", len(cands), req.Plan, last.err), time.Second)
}

// hedgeDelay maps the config knob to a timer value: negative disables
// hedging by pushing the timer past any request lifetime.
func hedgeDelay(d time.Duration) time.Duration {
	if d < 0 {
		return 24 * time.Hour
	}
	return d
}

// handleBroadcast fans a registration or value update out to every
// currently healthy replica (all of them when all are ejected), so any
// replica can serve any plan on failover. The client sees the first
// successful response; per-replica failures only fail the request when
// no replica accepted it.
func (rt *Router) handleBroadcast(w http.ResponseWriter, r *http.Request) {
	rt.met.Broadcasts.Add(1)
	body, err := readBody(w, r, maxSolveBody)
	if err != nil {
		writeError(w, http.StatusBadRequest, err, 0)
		return
	}
	hdr := passHeaders(r)
	targets := make([]*routerBackend, 0, len(rt.backs))
	for _, b := range rt.backs {
		if b.healthy.Load() {
			targets = append(targets, b)
		}
	}
	if len(targets) == 0 {
		targets = rt.backs
	}
	type outcome struct {
		resp *captured
		err  error
	}
	results := make([]outcome, len(targets))
	var wg sync.WaitGroup
	for i, b := range targets {
		wg.Add(1)
		i, b := i, b
		panicsafe.Go("serve.router-broadcast", func() {
			defer wg.Done()
			resp, err := rt.forward(r.Context(), r.Method, b.base+r.URL.Path, hdr, body)
			results[i] = outcome{resp: resp, err: err}
			if err != nil && r.Context().Err() == nil {
				rt.eject(b)
			}
		})
	}
	wg.Wait()
	var best *captured
	var lastErr error
	for _, res := range results {
		switch {
		case res.err != nil:
			lastErr = res.err
		case res.resp.status < 300 && (best == nil || best.status >= 300):
			best = res.resp
		case best == nil:
			best = res.resp
		}
	}
	if best != nil {
		best.relay(w)
		return
	}
	writeError(w, http.StatusBadGateway, fmt.Errorf("serve: router: broadcast reached no replica: %v", lastErr), time.Second)
}

// handleList forwards the plan listing to the first healthy replica
// (registrations are broadcast, so any replica's listing is the fleet's).
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	for _, b := range rt.backs {
		if !b.healthy.Load() {
			continue
		}
		resp, err := rt.forward(r.Context(), http.MethodGet, b.base+"/v1/plans", nil, nil)
		if err != nil {
			if r.Context().Err() == nil {
				rt.eject(b)
			}
			continue
		}
		resp.relay(w)
		return
	}
	writeError(w, http.StatusServiceUnavailable, errNoBackends, time.Second)
}

// routerHealth is the router's /healthz document.
type routerHealth struct {
	Status   string              `json:"status"` // "ok" or "unavailable"
	Backends []routerBackendInfo `json:"backends"`
}

type routerBackendInfo struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	doc := routerHealth{Status: "unavailable"}
	for _, b := range rt.backs {
		ok := b.healthy.Load()
		if ok {
			doc.Status = "ok"
		}
		doc.Backends = append(doc.Backends, routerBackendInfo{URL: b.base, Healthy: ok})
	}
	code := http.StatusOK
	if doc.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, doc)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("stsrouter_requests_total", "Solve requests routed.", rt.met.Requests.Load())
	counter("stsrouter_hedges_total", "Hedge attempts launched after the latency threshold.", rt.met.Hedges.Load())
	counter("stsrouter_failovers_total", "Attempts moved to another replica after a failure.", rt.met.Failovers.Load())
	counter("stsrouter_ejections_total", "Backends marked unhealthy by probes or failed forwards.", rt.met.Ejections.Load())
	counter("stsrouter_broadcasts_total", "Registration and value-update fan-outs.", rt.met.Broadcasts.Load())
	fmt.Fprintf(w, "# HELP stsrouter_backend_healthy Per-backend health (1 healthy, 0 ejected).\n# TYPE stsrouter_backend_healthy gauge\n")
	for _, b := range rt.backs {
		v := 0
		if b.healthy.Load() {
			v = 1
		}
		fmt.Fprintf(w, "stsrouter_backend_healthy{backend=%q} %d\n", b.base, v)
	}
}
