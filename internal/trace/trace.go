// Package trace is the solve-lifecycle span recorder behind the serving
// stack's per-stage latency attribution: one pooled, fixed-size Trace
// rides each request from HTTP admission through registry lookup,
// coalescer queueing, engine dispatch and kernel sweep to response
// serialization, stamping monotonic nanosecond spans along the way.
//
// The design contract mirrors internal/faultinject: the disarmed path is
// nil-fast. Every recording method is a no-op on a nil *Trace receiver —
// a concrete method call, no interface boxing, no allocation — so
// //stsk:noalloc hot paths (coalescer dispatch, engine panel sweeps) can
// carry unconditional hook calls and stay allocation-free whenever the
// context carries no trace, as it does for library callers below the
// serving stack. Arming is simply putting a non-nil *Trace into the
// request context.
//
// Concurrency: spans may be recorded from several goroutines (the
// requester, the coalescer dispatcher, the engine) while the trace is
// live. Slots are reserved with an atomic counter and every span field
// is stored atomically, with End written last — a reader skims partially
// written spans by skipping End == 0. Lifetime is reference-counted:
// the owner holds one reference from New, the coalescer retains one per
// queued request, and the trace returns to the pool only when the last
// Release lands, so a dispatcher completing a request whose caller
// already gave up can never scribble on a recycled trace.
package trace

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Stage labels one lifecycle phase of a served solve. The taxonomy is
// ordered roughly by request flow; DESIGN.md §9 documents who records
// each stage and what its span covers.
type Stage uint8

const (
	// StageAdmission covers the HTTP handler's front door: priority
	// admission, body decode, context setup — everything before the
	// registry is consulted.
	StageAdmission Stage = iota
	// StageRegistry covers plan acquisition: registry lookup, and on a
	// miss the cold build or snapshot warm-load (including lazy IC0).
	StageRegistry
	// StageEnqueue covers handing the request to the coalescer's bounded
	// queue (admission-control mutex plus the channel send).
	StageEnqueue
	// StageQueueWait is time parked in the coalescer queue before the
	// dispatcher popped the request.
	StageQueueWait
	// StageCoalesceWait is time between the pop and panel dispatch: the
	// requests already queued behind this one are collected, and one
	// scheduler yield lets a burst's stragglers join before the panel is
	// sealed. Near zero for a lone request, by design.
	StageCoalesceWait
	// StageRetryBackoff is jittered backoff slept between retry attempts
	// after a queue-full rejection.
	StageRetryBackoff
	// StageKernel covers one solver call end to end for this request —
	// the panel (or singleton) solve it rode, pin/dispatch/sweep nested
	// inside.
	StageKernel
	// StageEpochPin covers pinning the copy-on-write value epoch (and
	// materialising the transpose for backward sweeps).
	StageEpochPin
	// StageDispatch covers offering a call's shares to the idle solve
	// helpers.
	StageDispatch
	// StageSweep covers the numeric sweep itself: offer done to the
	// caller's own share finished and every joined helper returned.
	StageSweep
	// StageSerialize covers encoding and writing the HTTP response.
	StageSerialize

	// NumStages is the size of per-stage metric arrays.
	NumStages = int(StageSerialize) + 1
)

var stageNames = [NumStages]string{
	"admission", "registry", "enqueue", "queue_wait", "coalesce_wait",
	"retry_backoff", "kernel", "epoch_pin", "dispatch", "sweep", "serialize",
}

// String returns the stage's snake_case name as exported in metric
// labels and /debug/traces JSON.
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// MaxSpans bounds a trace's span array: a clean request records ~11
// spans, and each retry attempt can add up to 9 more, so 48 covers the
// default retry budget with slack. Overflow increments a drop counter
// instead of allocating.
const MaxSpans = 48

// base anchors the package's monotonic clock; wallBase maps stamps back
// to wall time for reporting.
var (
	base     = time.Now()
	wallBase = base
)

// Now is the monotonic stamp used for every span boundary: nanoseconds
// since process start. It is allocation-free and safe for
// //stsk:noalloc callers.
func Now() int64 { return int64(time.Since(base)) }

// Wall converts a Now stamp back to wall-clock time.
func Wall(ns int64) time.Time { return wallBase.Add(time.Duration(ns)) }

// span is the in-flight atomic representation; see the package comment
// for the publication protocol.
type span struct {
	stage atomic.Int64
	start atomic.Int64
	end   atomic.Int64 // stored last; 0 = not yet complete
}

// Trace is one request's span recorder. The zero value is not usable —
// obtain traces from New — but a nil *Trace is: every method no-ops, so
// hot paths hook unconditionally.
type Trace struct {
	id      string
	startNs int64
	n       atomic.Int32
	dropped atomic.Int32
	refs    atomic.Int32
	spans   [MaxSpans]span
}

var tracePool = sync.Pool{New: func() any { return new(Trace) }}

// idSeq feeds generated trace IDs; splitmix64 whitens the sequence so
// IDs from concurrent replicas don't visibly collide in dashboards.
var idSeq atomic.Uint64

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// idBase differentiates ID streams across processes: boot time in
// nanoseconds folded into every generated ID.
var idBase = uint64(time.Now().UnixNano())

// NewID mints a fresh 16-hex-digit trace ID (used by the router when a
// client supplied none, so the whole fan-out is attributable).
func NewID() string {
	v := splitmix64(idBase + idSeq.Add(1))
	s := strconv.FormatUint(v, 16)
	for len(s) < 16 {
		s = "0" + s
	}
	return s
}

// New takes a trace from the pool, stamps its start, and assigns its ID
// (the given one, or a generated one when empty). The caller owns one
// reference; pair with Release (the serve registry releases the traces
// it finishes).
func New(id string) *Trace {
	t := tracePool.Get().(*Trace)
	if id == "" {
		id = NewID()
	}
	t.id = id
	t.startNs = Now()
	t.n.Store(0)
	t.dropped.Store(0)
	t.refs.Store(1)
	for i := range t.spans {
		t.spans[i].end.Store(0)
	}
	return t
}

// ID returns the trace's identifier ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Start returns the trace's admission stamp (0 on nil), in Now units.
func (t *Trace) Start() int64 {
	if t == nil {
		return 0
	}
	return t.startNs
}

// Observe records one completed span. Nil-safe, allocation-free, and
// callable from any goroutine holding a reference. Spans beyond
// MaxSpans are counted as dropped, never recorded.
func (t *Trace) Observe(stage Stage, start, end int64) {
	if t == nil {
		return
	}
	i := t.n.Add(1) - 1
	if int(i) >= MaxSpans {
		t.n.Add(-1)
		t.dropped.Add(1)
		return
	}
	s := &t.spans[i]
	s.stage.Store(int64(stage))
	s.start.Store(start)
	s.end.Store(end) // publishes the span; readers skip end == 0
}

// Retain adds a reference: a goroutine that will record into the trace
// after the owner may have finished (the coalescer dispatcher) must hold
// one. Nil-safe.
func (t *Trace) Retain() {
	if t == nil {
		return
	}
	t.refs.Add(1)
}

// Release drops a reference; the last one resets the trace and returns
// it to the pool. Nil-safe.
func (t *Trace) Release() {
	if t == nil {
		return
	}
	if t.refs.Add(-1) == 0 {
		t.id = ""
		tracePool.Put(t)
	}
}

// Span is one finished lifecycle phase in a Record, with Start/End as
// nanosecond offsets from the trace's own start.
type Span struct {
	Stage Stage
	Start int64
	End   int64
}

// Duration is the span's length.
func (s Span) Duration() time.Duration { return time.Duration(s.End - s.Start) }

// Record is the immutable snapshot a finished trace leaves behind: what
// the ring buffer stores and /debug/traces serves. Spans are sorted by
// start offset.
type Record struct {
	ID      string
	Plan    string
	Outcome string
	Start   time.Time
	Total   time.Duration
	Dropped int
	Spans   []Span
}

// StageTotal sums the durations of every span of the given stage —
// retries contribute multiple spans per stage.
func (r Record) StageTotal(stage Stage) time.Duration {
	var d time.Duration
	for _, s := range r.Spans {
		if s.Stage == stage {
			d += s.Duration()
		}
	}
	return d
}

// Finish closes the trace's wall interval and snapshots it into a
// Record. Call exactly once, from the owning goroutine, while still
// holding the owner reference; spans still being written by a straggler
// (a dispatcher completing an abandoned request) are simply skipped.
// Finish does not release the reference — callers pair it with Release.
func (t *Trace) Finish(plan, outcome string) Record {
	if t == nil {
		return Record{}
	}
	endNs := Now()
	n := int(t.n.Load())
	if n > MaxSpans {
		n = MaxSpans
	}
	rec := Record{
		ID:      t.id,
		Plan:    plan,
		Outcome: outcome,
		Start:   Wall(t.startNs),
		Total:   time.Duration(endNs - t.startNs),
		Dropped: int(t.dropped.Load()),
		Spans:   make([]Span, 0, n),
	}
	for i := 0; i < n; i++ {
		s := &t.spans[i]
		end := s.end.Load()
		if end == 0 {
			continue // reserved but not yet published
		}
		sp := Span{
			Stage: Stage(s.stage.Load()),
			Start: s.start.Load() - t.startNs,
			End:   end - t.startNs,
		}
		// A straggler publishing while Finish runs can stamp an end a hair
		// past the total just taken; clamp so records are always internally
		// consistent (every span within [0, Total]).
		if total := int64(rec.Total); sp.End > total {
			sp.End = total
		}
		if sp.Start > sp.End {
			sp.Start = sp.End
		}
		rec.Spans = append(rec.Spans, sp)
	}
	sortSpans(rec.Spans)
	return rec
}

// sortSpans orders by start offset (insertion sort: span counts are
// tiny and this avoids a sort.Slice closure).
func sortSpans(spans []Span) {
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && spans[j].Start < spans[j-1].Start; j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
}

// ctxKey is the context key type; traceKey is pre-boxed once so
// FromContext in //stsk:noalloc functions performs no interface
// conversion of its own.
type ctxKey struct{}

var traceKey any = ctxKey{}

// NewContext returns ctx carrying tr. A nil tr returns ctx unchanged,
// so disarmed callers pay nothing.
func NewContext(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey, tr)
}

// FromContext returns the context's trace, or nil when the request is
// untraced. Allocation-free; safe for //stsk:noalloc callers.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	tr, _ := ctx.Value(traceKey).(*Trace)
	return tr
}
