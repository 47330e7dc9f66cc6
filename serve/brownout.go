package serve

import (
	"sync/atomic"
	"time"

	"stsk/internal/panicsafe"
)

// BrownoutState is the registry's degradation state, exported at
// /healthz and /metrics (stsserve_brownout_state).
type BrownoutState int32

const (
	// BrownoutHealthy: full service.
	BrownoutHealthy BrownoutState = iota

	// BrownoutDegraded: overloaded but serving. Requests below the
	// priority threshold are shed (429 + Retry-After) and cold plan builds
	// are refused (503).
	BrownoutDegraded

	// BrownoutDraining: the registry is shutting down; everything new is
	// refused with ErrDraining.
	BrownoutDraining
)

func (s BrownoutState) String() string {
	switch s {
	case BrownoutDegraded:
		return "degraded"
	case BrownoutDraining:
		return "draining"
	default:
		return "healthy"
	}
}

// The degradation state machine's tuning. One set of values serves every
// deployment, so these are constants rather than Config fields.
const (
	// brownoutInterval is the time between controller evaluations.
	brownoutInterval = 100 * time.Millisecond

	// degradeQueueFrac enters degraded mode when the summed coalescer
	// queue depth exceeds this fraction of total queue capacity;
	// recoverQueueFrac is the hysteresis floor a calm evaluation needs.
	degradeQueueFrac = 0.75
	recoverQueueFrac = 0.25

	// degradeLatency and degradeLatencyFrac enter degraded mode when
	// more than degradeLatencyFrac of the solves observed since the last
	// evaluation took longer than degradeLatency.
	degradeLatency     = 250 * time.Millisecond
	degradeLatencyFrac = 0.5

	// recoverTicks is how many consecutive calm evaluations heal a
	// degraded registry — hysteresis against flapping.
	recoverTicks = 5

	// shedBelowPriority is the X-STS-Priority threshold under degraded
	// mode: requests with priority < this are shed, which sheds only
	// requests that did not claim a priority (header absent = 0).
	shedBelowPriority = 1
)

// brownout is the degradation state machine: a small controller loop
// that watches queue pressure and the latency histogram and moves the
// registry between healthy, degraded, and draining. State reads are a
// single atomic load on the request path.
type brownout struct {
	reg *Registry

	state  atomic.Int32
	reason atomic.Pointer[string]

	// Controller-goroutine-private evaluation state.
	calm                int   // consecutive calm ticks while degraded
	lastTotal, lastOver int64 // histogram cursor for per-tick windows

	tick *time.Ticker
	stop chan struct{}
	done chan struct{}
}

// newBrownout starts the controller loop for reg.
func newBrownout(reg *Registry) *brownout {
	b := &brownout{
		reg:  reg,
		tick: time.NewTicker(brownoutInterval),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	empty := ""
	b.reason.Store(&empty)
	panicsafe.Go("serve.brownout", func() {
		defer close(b.done)
		defer b.tick.Stop()
		for {
			select {
			case <-b.tick.C:
				b.evaluate()
			case <-b.stop:
				return
			}
		}
	})
	return b
}

// close moves to draining and stops the controller loop.
func (b *brownout) close() {
	b.setState(BrownoutDraining, "registry draining")
	close(b.stop)
	<-b.done
}

// State returns the current degradation state and, when degraded, the
// reason that tripped it.
func (b *brownout) State() (BrownoutState, string) {
	return BrownoutState(b.state.Load()), *b.reason.Load()
}

func (b *brownout) setState(s BrownoutState, reason string) {
	b.reason.Store(&reason)
	b.state.Store(int32(s))
}

// evaluate is one controller tick: measure, then walk the state machine.
func (b *brownout) evaluate() {
	depth, capacity := b.reg.queueStats()
	queueFrac := 0.0
	if capacity > 0 {
		queueFrac = float64(depth) / float64(capacity)
	}
	total, over := b.reg.met.latencyTotals(degradeLatency.Seconds())
	wTotal, wOver := total-b.lastTotal, over-b.lastOver
	b.lastTotal, b.lastOver = total, over
	slow := wTotal > 0 && float64(wOver)/float64(wTotal) >= degradeLatencyFrac

	switch BrownoutState(b.state.Load()) {
	case BrownoutDraining:
		return
	case BrownoutHealthy:
		switch {
		case queueFrac >= degradeQueueFrac:
			b.degrade("queue depth over threshold")
		case slow:
			b.degrade("latency over threshold")
		}
	case BrownoutDegraded:
		if queueFrac <= recoverQueueFrac && !slow {
			b.calm++
			if b.calm >= recoverTicks {
				b.heal()
			}
		} else {
			b.calm = 0
		}
	}
}

// degrade enters degraded mode and records the reason that tripped it.
func (b *brownout) degrade(reason string) {
	b.calm = 0
	b.setState(BrownoutDegraded, reason)
}

// heal restores full service.
func (b *brownout) heal() {
	b.calm = 0
	b.setState(BrownoutHealthy, "")
}
