package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// workload is one traffic mix. prepare makes the seeded inputs and the
// reference answers (not part of setup_s); setup goes from an empty state to
// the first verified answer of every plan, variant and sweep the workload
// uses (timed as setup_s); both time their calls into the build layer
// through b. drive runs the load for one window; updates times one phase of
// the value updates a workload measures outside its window (untraced runs
// take a phase before and after the window); layers turns a window into the
// workload's own per-layer metrics.
type workload interface {
	prepare(b *buildRun) error
	setup(b *buildRun, tl *tally) error
	drive(d time.Duration, win *window, tl *tally)
	updates(tl *tally) []float64
	layers(win *window) map[string]float64
	teardown()
	// queueDepth samples the serving queue; nil when the workload has none.
	queueDepth() func() int
}

// buildTimes are the calls into the build layer, in milliseconds.
type buildTimes struct{ generate, order, ic0, register float64 }

func (b buildTimes) plus(o buildTimes) buildTimes {
	return buildTimes{b.generate + o.generate, b.order + o.order, b.ic0 + o.ic0, b.register + o.register}
}

// buildRun times one prepare or set-up: each call into the build layer adds
// its milliseconds to times and, when traced, leaves a span under the run's
// root span.
type buildRun struct {
	tr    *tracer
	op    int64
	root  int
	times buildTimes
}

func startBuild(tr *tracer, name string) *buildRun {
	op := tr.newOp()
	return &buildRun{tr: tr, op: op, root: tr.begin(op, -1, name, time.Now())}
}

func (b *buildRun) finish() { b.tr.end(b.root, time.Now()) }

// call runs f as one timed call named name and adds its milliseconds to *ms.
func (b *buildRun) call(name string, ms *float64, f func() error) error {
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	*ms += float64(t1.Sub(t0).Nanoseconds()) / 1e6
	b.tr.add(b.op, b.root, name, t0, t1)
	return err
}

// tally counts operations and their outcomes over a whole run: set-up
// answers, the timed window and the update phases.
type tally struct {
	attempted atomic.Int64
	errored   atomic.Int64 // an error, a refusal (429/503) or no convergence
	wrong     atomic.Int64 // an answer that differs from the reference
}

// record accounts one operation and reports whether it succeeded.
func (t *tally) record(err error, right bool) bool {
	t.attempted.Add(1)
	switch {
	case err != nil:
		t.errored.Add(1)
		return false
	case !right:
		t.wrong.Add(1)
		return false
	}
	return true
}

func (t *tally) failed() int64 { return t.errored.Load() + t.wrong.Load() }

func (t *tally) failedShare() float64 {
	n := t.attempted.Load()
	if n == 0 {
		return 0
	}
	return float64(t.failed()) / float64(n)
}

// samples is a concurrency-safe list of measurements.
type samples struct {
	mu sync.Mutex
	xs []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.xs = append(s.xs, x)
	s.mu.Unlock()
}

func (s *samples) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.xs...)
}

// window is what one timed stretch of load leaves behind.
type window struct {
	tr  *tracer // nil when untraced
	lat samples // latency of each completed primary operation, ms
	upd samples // latency of each completed value update, ms

	done      atomic.Int64 // completed operations, updates included
	lateMaxMs float64      // open-loop generator lateness
	breakdown map[string]map[string]float64

	wall       time.Duration
	cpu        time.Duration
	heapMB     []float64
	depth      []float64
	steal      float64
	allocBytes float64
	gcCycles   float64
	schedP90us float64
}

func (w *window) ops() int64 { return w.done.Load() }

func (w *window) cpuMsPerOp() float64 {
	return float64(w.cpu.Microseconds()) / 1000 / float64(max(w.ops(), 1))
}

// measure drives one window of load and records the process-level costs
// around it: CPU (getrusage, which excludes time stolen by the hypervisor),
// sampled live heap and queue depth, hypervisor steal, and Go runtime
// allocation, GC and scheduling-latency deltas.
func measure(w workload, d time.Duration, tr *tracer, tl *tally) *window {
	win := &window{tr: tr}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sampleLoop(stop, win, w.queueDepth())
	}()
	rm0 := readRuntime()
	st0, tot0 := readSteal()
	cpu0 := cpuTime()
	t0 := time.Now()
	w.drive(d, win, tl)
	win.wall = time.Since(t0)
	win.cpu = cpuTime() - cpu0
	st1, tot1 := readSteal()
	rm1 := readRuntime()
	close(stop)
	wg.Wait()
	if tot1 > tot0 {
		win.steal = float64(st1-st0) / float64(tot1-tot0)
	}
	win.allocBytes = rm1.allocBytes - rm0.allocBytes
	win.gcCycles = rm1.gcCycles - rm0.gcCycles
	win.schedP90us = histDeltaQuantile(rm0.sched, rm1.sched, 0.9) * 1e6
	return win
}

// sampleLoop reads the queue depth every 5 ms and the live heap every
// 100 ms until stop closes.
func sampleLoop(stop <-chan struct{}, win *window, depth func() int) {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		if depth != nil {
			win.depth = append(win.depth, float64(depth()))
		}
		if i%20 == 0 {
			metrics.Read(live)
			win.heapMB = append(win.heapMB, float64(live[0].Value.Uint64())/(1<<20))
		}
	}
}

type runtimeSample struct {
	allocBytes, gcCycles float64
	sched                *metrics.Float64Histogram
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCycles:   float64(s[1].Value.Uint64()),
		sched:      s[2].Value.Float64Histogram(),
	}
}

// histDeltaQuantile returns the q-quantile of the observations a runtime
// histogram gained between two reads, as the upper edge of the bucket it
// falls in (the lower edge for the unbounded last bucket).
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	need := uint64(q*float64(total) + 0.5)
	var run uint64
	for i := range b.Counts {
		run += b.Counts[i] - a.Counts[i]
		if run >= need && run > 0 {
			hi := b.Buckets[i+1]
			if hi > 1e300 {
				return b.Buckets[i]
			}
			return hi
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readSteal returns the host's cumulative steal and total CPU time from
// /proc/stat, in clock ticks; both are 0 where the file is unavailable.
func readSteal() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
