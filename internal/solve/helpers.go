package solve

import (
	"sync"
	"sync/atomic"

	"stsk/internal/panicsafe"
	"stsk/internal/trace"
)

// helpers is the one process-wide set of parked goroutines that join
// calls — the OpenMP team of the paper's pack loops, shared by every
// Engine. A call is swept by its calling goroutine plus whichever helpers
// are idle when it is offered, so the goroutine count follows the
// largest Workers any engine asked for, not the number of plans.
var helpers = helperSet{jobs: make(chan job)}

// helperSet parks its helpers on an unbuffered channel. idle counts the
// helpers parked (or on their way back to park) and not yet claimed.
type helperSet struct {
	mu   sync.Mutex // serialises grow
	n    int        // helpers started
	idle atomic.Int32
	jobs chan job
}

// job is one call's work, swept by the caller and by every helper that
// joins it: a cooperative sweep of one panel over the task DAG, a
// multi-panel call claimed panel by panel, or a sparse product claimed
// chunk by chunk. Exactly one of graph, panel and spmv is set; done is
// that run's completion.
type job struct {
	graph *graphRun
	panel *panelRun
	spmv  *spmvRun
	done  *completion
}

// completion is what a call's participants share besides the work: the
// helpers still sweeping, and the first failure any of them met.
type completion struct {
	wg  sync.WaitGroup
	mu  sync.Mutex
	err error
}

// fail records the first failure of the call.
func (c *completion) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

// cooperate sweeps one call: it offers j to up to n idle helpers, runs
// the caller's own share, waits for every helper that joined, and
// returns the call's first failure. Only then may the caller recycle the
// run behind j.
//
//stsk:noalloc
func cooperate(tr *trace.Trace, j job, n int) error {
	d0 := trace.Now()
	helpers.offer(j, n)
	s0 := trace.Now()
	tr.Observe(trace.StageDispatch, d0, s0)
	j.run()
	j.done.wg.Wait()
	tr.Observe(trace.StageSweep, s0, trace.Now())
	err := j.done.err
	j.done.err = nil
	return err
}

// run sweeps one participant's share. Every share is its own
// panic-containment boundary, so run never panics.
func (j job) run() {
	switch {
	case j.graph != nil:
		j.graph.runShare()
	case j.panel != nil:
		j.panel.runShare()
	default:
		j.spmv.runShare()
	}
}

// grow starts helpers until a call of the given worker count can have a
// full team: workers−1 helpers beside its caller. The set never shrinks;
// parked helpers cost nothing between calls.
func (h *helperSet) grow(workers int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for ; h.n < workers-1; h.n++ {
		h.idle.Add(1)
		panicsafe.Go("solve.helper", h.loop)
	}
}

// loop is one helper: take a share, sweep it, park again. It counts
// itself idle before it signals the share done, so a call issued the
// instant the previous one returns (the backward sweep of an IC(0)
// application right after the forward one) already finds it.
func (h *helperSet) loop() {
	for j := range h.jobs {
		j.run()
		h.idle.Add(1)
		j.done.wg.Done()
	}
}

// offer hands j to up to n idle helpers. Each is claimed by a CAS on the
// idle count before the send, so the send goes only to a helper already
// on its way to the channel: offer never waits for a busy helper, and a
// call that finds none idle is swept by its caller alone.
//
//stsk:noalloc
func (h *helperSet) offer(j job, n int) {
	for n > 0 {
		idle := h.idle.Load()
		if idle <= 0 {
			return
		}
		if h.idle.CompareAndSwap(idle, idle-1) {
			j.done.wg.Add(1)
			h.jobs <- j
			n--
		}
	}
}
