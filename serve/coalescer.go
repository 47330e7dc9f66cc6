package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"stsk"
	"stsk/internal/faultinject"
	"stsk/internal/panicsafe"
	"stsk/internal/trace"
)

// Package sentinels surfaced by the serving layer; the HTTP transport
// maps them onto status codes. ErrQueueFull is admission control — the
// bounded coalescer queue bounced the request (HTTP 429) — and
// ErrDraining reports a registry shutting down (HTTP 503). ErrDegraded
// and ErrShed are the brownout controller's refusals: cold plan builds
// deferred while overloaded (503) and low-priority requests shed below
// the degraded-mode threshold (429).
var (
	ErrUnknownPlan = errors.New("serve: unknown plan")
	ErrQueueFull   = errors.New("serve: solve queue full")
	ErrDraining    = errors.New("serve: registry draining")
	ErrDegraded    = errors.New("serve: degraded, cold plan builds refused")
	ErrShed        = errors.New("serve: request shed under brownout")
)

// errCoalescerClosed reports an enqueue that raced an eviction: the plan's
// solver is shutting down. It never escapes the registry — Registry.Solve
// retries against a freshly built plan, and translates the sentinel to a
// retriable ErrPlanEvicted if it loses the race on every attempt.
var errCoalescerClosed = errors.New("serve: coalescer closed")

// solveReq is one queued single-RHS solve. done is buffered (capacity 1)
// so a dispatcher can always complete a request whose caller has already
// given up on its context and gone away. tr is the request's lifecycle
// trace (nil when untraced); the coalescer holds its own reference from
// enqueue until completion, so recording queue/kernel spans for an
// abandoned caller can never touch a recycled trace. enqNs and popNs
// stamp the queue interval for the queue_wait/coalesce_wait spans.
type solveReq struct {
	//stsk:allow-ctx-field (request-scoped: carried only from enqueue to dispatch, never stored past completion)
	ctx   context.Context
	b     []float64
	x     []float64
	done  chan error
	tr    *trace.Trace
	enqNs int64
	popNs int64
}

// complete records nothing, releases the coalescer's trace reference,
// and answers the waiting caller — the single completion path every
// dispatcher-side branch funnels through so no reference ever leaks.
func (r *solveReq) complete(err error) {
	r.tr.Release()
	r.tr = nil
	r.done <- err
}

// coalescer converts request concurrency into panel-kernel throughput for
// one (solver, sweep-direction) key: concurrent single-RHS solve requests
// queue into a bounded channel, and a dispatcher goroutine packs up to
// width pending right-hand sides into one blocked panel solve
// (Solver.SolveBlockInto) — so a burst of 32 requests rides the matrix
// traversal eight at a time.
//
// No timer holds a panel open (see collect): a lone request ships after
// one scheduler yield (latency-bound), while under heavy load the queue
// always holds a full panel (throughput-bound). The achieved mean width
// is exported via Metrics.
type coalescer struct {
	solver *stsk.Solver
	upper  bool // backward sweeps (L′ᵀx = b) instead of forward
	width  int  // max requests per panel
	met    *Metrics

	mu     sync.Mutex // guards closed vs enqueue
	closed bool

	queue chan *solveReq
	stop  chan struct{}
	wg    sync.WaitGroup

	// Dispatcher-owned scratch, reused across batches.
	batch  []*solveReq
	xs, bs [][]float64
}

// newCoalescer builds an unstarted coalescer whose panels are as wide as
// the solver's block solves; call start to launch the dispatcher (tests
// enqueue against an unstarted one for determinism).
func newCoalescer(solver *stsk.Solver, upper bool, queueCap int, met *Metrics) *coalescer {
	width := solver.BlockWidth()
	return &coalescer{
		solver: solver,
		upper:  upper,
		width:  width,
		met:    met,
		queue:  make(chan *solveReq, queueCap),
		stop:   make(chan struct{}),
		batch:  make([]*solveReq, 0, width),
		xs:     make([][]float64, 0, width),
		bs:     make([][]float64, 0, width),
	}
}

func (c *coalescer) start() {
	c.wg.Add(1)
	panicsafe.Go("serve.coalescer", func() {
		defer c.wg.Done()
		c.run()
	})
}

// depth reports the requests currently queued (a point-in-time gauge).
func (c *coalescer) depth() int { return len(c.queue) }

// enqueue admits a request or bounces it: a full queue returns
// ErrQueueFull immediately (admission control — the transport answers
// 429 rather than building unbounded backlog), and a closed coalescer
// returns errCoalescerClosed so the registry retries against a rebuilt
// plan. The closed check and the send share c.mu, so no request can slip
// into the queue after the dispatcher's final drain.
func (c *coalescer) enqueue(r *solveReq) error {
	if err := faultinject.Fire(faultinject.CoalescerEnqueue); err != nil {
		if errors.Is(err, faultinject.ErrSaturated) {
			// An injected saturation models a full queue; translate to the
			// domain sentinel so retry policy and HTTP mapping are exercised
			// exactly as for real backpressure.
			return ErrQueueFull
		}
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errCoalescerClosed
	}
	select {
	case c.queue <- r:
		return nil
	default:
		return ErrQueueFull
	}
}

// solve queues one right-hand side and waits for its panel to complete.
// The caller's context is honored at every stage: a dead context is
// dropped at collection time without touching a kernel, and a caller
// whose context dies while waiting returns promptly — the dispatcher
// completes the buffered response into the void.
func (c *coalescer) solve(ctx context.Context, b []float64) ([]float64, error) {
	// A dead request is never queued: it would only occupy a bounded
	// admission slot until the dispatcher discards it, starving live
	// requests into 429s.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e0 := trace.Now()
	tr := trace.FromContext(ctx)
	r := &solveReq{ctx: ctx, b: b, x: make([]float64, len(b)), done: make(chan error, 1), tr: tr}
	// The enqueue stamp and the reference must both be in place before the
	// request is visible to the dispatcher, which may pop (and complete) it
	// immediately; past the enqueue only the local tr is safe to touch.
	r.enqNs = trace.Now()
	tr.Retain()
	if err := c.enqueue(r); err != nil {
		tr.Release()
		return nil, err
	}
	tr.Observe(trace.StageEnqueue, e0, r.enqNs)
	select {
	case err := <-r.done:
		if err != nil {
			return nil, err
		}
		return r.x, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// close stops the dispatcher after a graceful drain: requests already
// queued are still solved (their callers are waiting), new enqueues fail,
// and close returns once the dispatcher has exited. The solver itself is
// closed by the owner afterwards, so every drained panel runs on a live
// solver.
func (c *coalescer) close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wg.Wait()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stop)
	c.wg.Wait()
}

// run is the dispatcher loop: park until a request arrives, collect a
// panel around it, dispatch, repeat. On stop it drains the queue panel by
// panel — enqueue refuses once closed is set, so no request admitted by
// enqueue is ever stranded.
func (c *coalescer) run() {
	for {
		select {
		case r := <-c.queue:
			c.dispatchSafe(c.collect(r))
		case <-c.stop:
			for len(c.queue) > 0 {
				c.dispatchSafe(c.collect(<-c.queue))
			}
			return
		}
	}
}

// collect gathers a panel around the first request: whatever is already
// queued, up to width. When the queue runs dry short of a full panel it
// yields the processor once, so requests already runnable — the rest of
// a burst — can enqueue before the panel is sealed. Requests whose
// context is already dead are answered immediately and excluded, so one
// cancelled client never occupies a panel slot.
func (c *coalescer) collect(first *solveReq) []*solveReq {
	batch := c.batch[:0]
	r, yielded := first, false
	for {
		r.popNs = trace.Now()
		if err := r.ctx.Err(); err != nil {
			r.complete(err)
		} else if batch = append(batch, r); len(batch) == c.width {
			return batch
		}
		if r = c.pop(); r == nil && !yielded {
			yielded = true
			runtime.Gosched()
			r = c.pop()
		}
		if r == nil {
			return batch
		}
	}
}

// pop takes a queued request without waiting: nil when the queue is
// empty.
func (c *coalescer) pop() *solveReq {
	select {
	case r := <-c.queue:
		return r
	default:
		return nil
	}
}

// dispatchSafe is the dispatcher's panic-containment and fault-injection
// boundary around dispatch. The engine already converts kernel panics
// into errors at its own job boundaries, so the recover here is the
// second line of defence — whatever escapes, every member of the batch
// is completed (its caller is waiting on done) and the dispatcher
// goroutine survives to serve the next panel.
func (c *coalescer) dispatchSafe(batch []*solveReq) {
	if len(batch) == 0 {
		return
	}
	defer func() {
		if p := recover(); p != nil {
			err := panicsafe.AsError(p)
			for i, r := range batch {
				if r != nil {
					r.complete(err)
					batch[i] = nil
				}
			}
		}
	}()
	// Close out each member's queue interval: parked in the bounded queue
	// (queue_wait), then held while the panel filled (coalesce_wait).
	d0 := trace.Now()
	for _, r := range batch {
		r.tr.Observe(trace.StageQueueWait, r.enqNs, r.popNs)
		r.tr.Observe(trace.StageCoalesceWait, r.popNs, d0)
	}
	if err := faultinject.Fire(faultinject.CoalescerDispatch); err != nil {
		for i, r := range batch {
			r.complete(err)
			batch[i] = nil
		}
		return
	}
	// The panel runs under the background context (panel isolation — see
	// dispatch), which would sever the engine's span hooks from every
	// trace; thread the panel leader's trace through so pin/dispatch/sweep
	// attribution survives, attributed to the member that opened the
	// panel.
	//stsk:allow-background (panel isolation: one member's cancellation must not void its neighbours' work)
	ctx := trace.NewContext(context.Background(), batch[0].tr)
	c.dispatch(ctx, batch)
}

// dispatch solves one collected panel on the blocked kernels
// (SolveBlockInto), one matrix traversal amortised over every member; a
// singleton is a panel of width 1, which the engine sweeps with the
// scalar kernel. Each member's solution is bitwise identical to
// Plan.Solve — the panel kernels evaluate every row dot product in the
// same order as the scalar path.
//
//stsk:noalloc
func (c *coalescer) dispatch(ctx context.Context, batch []*solveReq) {
	if len(batch) == 0 {
		return
	}
	c.met.Batches.Add(1)
	c.met.WidthSum.Add(int64(len(batch)))
	xs, bs := c.xs[:0], c.bs[:0]
	for _, r := range batch {
		xs = append(xs, r.x)
		bs = append(bs, r.b)
	}
	// The panel runs under the panel-isolation context built by
	// dispatchSafe: never cancelled — one member's death must not void its
	// neighbours' work, and a panel is at most width solves deep so it
	// completes promptly regardless — but carrying the leader's trace for
	// engine-stage attribution. Members whose context died mid-panel
	// simply find no reader on their buffered done channel.
	k0 := trace.Now()
	var err error
	if c.upper {
		err = c.solver.SolveUpperBlockInto(ctx, xs, bs)
	} else {
		err = c.solver.SolveBlockInto(ctx, xs, bs)
	}
	k1 := trace.Now()
	for i := range xs {
		xs[i], bs[i] = nil, nil
	}
	for i, r := range batch {
		// Every member rode the same panel: each gets the kernel span, so
		// any member's trace explains where its wall time went.
		r.tr.Observe(trace.StageKernel, k0, k1)
		r.complete(err)
		batch[i] = nil // drop the reference so the scratch array pins nothing
	}
}
