package main

import (
	"math/rand/v2"
	"time"
)

// burst is one scheduled open-loop arrival: size right-hand sides for one
// (plan, variant, sweep) key, sent together so the coalescer can panel
// them.
type burst struct {
	at    time.Duration // due time, from the window start
	size  int
	plan  int
	upper bool
	ic0   bool
	rhs   int // first index into the plan's right-hand-side pool
}

// burstMix is the traffic mix of the serve-burst schedule.
type burstMix struct {
	rate     float64 // bursts per second (Poisson arrivals)
	maxSize  int     // burst sizes are uniform in 1..maxSize
	plans    int     // plans are chosen uniformly
	upperP   float64 // share of bursts on the backward sweep
	ic0P     float64 // share of bursts on the IC(0) variant
	poolSize int
}

// schedule draws the arrivals of one window of length d from (seed,
// stream) alone, so a seed reproduces the schedule exactly.
func (m burstMix) schedule(seed int64, stream uint64, d time.Duration) []burst {
	rng := rand.New(rand.NewPCG(uint64(seed), stream))
	var out []burst
	at := 0.0
	for {
		at += rng.ExpFloat64() / m.rate
		due := time.Duration(at * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, burst{
			at:    due,
			size:  1 + rng.IntN(m.maxSize),
			plan:  rng.IntN(m.plans),
			upper: rng.Float64() < m.upperP,
			ic0:   rng.Float64() < m.ic0P,
			rhs:   rng.IntN(m.poolSize),
		})
	}
}

// runSchedule is the open-loop generator: it hands each burst to fire at
// its due time, never waiting for earlier ones to finish, and returns how
// late it ran at worst. fire receives the due time so latency can be
// measured from when the burst was due, which charges a generator stall
// to the requests it delayed.
func runSchedule(sched []burst, start time.Time, fire func(b burst, due time.Time)) (lateMax time.Duration) {
	for _, b := range sched {
		due := start.Add(b.at)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lateMax = max(lateMax, time.Since(due))
		fire(b, due)
	}
	return lateMax
}
