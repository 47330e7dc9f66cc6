package main

import (
	"slices"
	"sync"
	"testing"
	"time"
)

func TestBurstScheduleReproducesExactly(t *testing.T) {
	m := defaultBurstMix
	a := m.schedule(7, 0, 10*time.Second)
	b := m.schedule(7, 0, 10*time.Second)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed and stream drew different schedules")
	}
	if slices.Equal(a, m.schedule(8, 0, 10*time.Second)) {
		t.Fatal("another seed drew the same schedule")
	}
	if slices.Equal(a, m.schedule(7, 1, 10*time.Second)) {
		t.Fatal("another window stream drew the same schedule")
	}
	// 10 s at 330 bursts/s: the Poisson count is 3300 ± 57 (one sigma).
	if n := len(a); n < 3100 || n > 3500 {
		t.Fatalf("%d bursts in 10 s, want about 3300", n)
	}
	var size, upper, ic0 float64
	for i, bu := range a {
		if bu.size < 1 || bu.size > m.maxSize || bu.plan < 0 || bu.plan >= m.plans || bu.rhs < 0 || bu.rhs >= m.poolSize {
			t.Fatalf("burst %d out of range: %+v", i, bu)
		}
		if i > 0 && bu.at < a[i-1].at {
			t.Fatalf("burst %d due before burst %d", i, i-1)
		}
		size += float64(bu.size)
		if bu.upper {
			upper++
		}
		if bu.ic0 {
			ic0++
		}
	}
	n := float64(len(a))
	if mean := size / n; mean < 4.3 || mean > 4.7 {
		t.Errorf("mean burst size %.2f, want about 4.5", mean)
	}
	if share := upper / n; share < 0.45 || share > 0.55 {
		t.Errorf("upper share %.2f, want about 0.5", share)
	}
	if share := ic0 / n; share < 0.21 || share > 0.29 {
		t.Errorf("IC(0) share %.2f, want about 0.25", share)
	}
}

// A stall in the generator makes the bursts behind it late; the generator
// reports that lateness, and latency measured from the due time carries it.
func TestGeneratorLatenessAccounting(t *testing.T) {
	const stall = 30 * time.Millisecond
	sched := []burst{{at: 0}, {at: time.Millisecond}, {at: 2 * time.Millisecond}}
	var mu sync.Mutex
	var fired []time.Duration // lateness seen at each fire
	start := time.Now()
	lateMax := runSchedule(sched, start, func(bu burst, due time.Time) {
		if !due.Equal(start.Add(bu.at)) {
			t.Errorf("burst due %v, want %v", due.Sub(start), bu.at)
		}
		mu.Lock()
		fired = append(fired, time.Since(due))
		first := len(fired) == 1
		mu.Unlock()
		if first {
			time.Sleep(stall) // the generator itself stalls
		}
	})
	if len(fired) != len(sched) {
		t.Fatalf("fired %d bursts, want %d", len(fired), len(sched))
	}
	if want := stall - 2*time.Millisecond; lateMax < want {
		t.Fatalf("late max %v, want at least %v after a %v stall", lateMax, want, stall)
	}
	if fired[2] < stall-2*time.Millisecond {
		t.Fatalf("latency of the last burst from its due time is %v, want it to include the stall", fired[2])
	}
}
