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
var helpers = helperSet{runs: make(chan *graphRun)}

// helperSet parks its helpers on an unbuffered channel. idle counts the
// helpers parked (or on their way back to park) and not yet claimed.
type helperSet struct {
	mu   sync.Mutex // serialises grow
	n    int        // helpers started
	idle atomic.Int32
	runs chan *graphRun
}

// cooperate sweeps one call: it arms g, offers it to up to n idle
// helpers, runs the caller's own share, waits for every helper that
// joined, and returns the call's first failure. Only then may the caller
// recycle g.
//
//stsk:noalloc
func cooperate(tr *trace.Trace, g *graphRun, n int) error {
	g.arm()
	d0 := trace.Now()
	helpers.offer(g, n)
	s0 := trace.Now()
	tr.Observe(trace.StageDispatch, d0, s0)
	g.runShare()
	g.wg.Wait()
	tr.Observe(trace.StageSweep, s0, trace.Now())
	err := g.err
	g.err = nil
	return err
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
	for g := range h.runs {
		g.runShare()
		h.idle.Add(1)
		g.wg.Done()
	}
}

// offer hands g to up to n idle helpers. Each is claimed by a CAS on the
// idle count before the send, so the send goes only to a helper already
// on its way to the channel: offer never waits for a busy helper, and a
// call that finds none idle is swept by its caller alone.
//
//stsk:noalloc
func (h *helperSet) offer(g *graphRun, n int) {
	for n > 0 {
		idle := h.idle.Load()
		if idle <= 0 {
			return
		}
		if h.idle.CompareAndSwap(idle, idle-1) {
			g.wg.Add(1)
			h.runs <- g
			n--
		}
	}
}
