package serve

import (
	"fmt"
	"io"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"stsk/internal/trace"
)

// latencyBuckets are the upper bounds (seconds) of the solve-latency
// histogram, spanning sub-millisecond cache-resident solves up to
// multi-second cold builds; the implicit final bucket is +Inf.
var latencyBuckets = [...]float64{
	0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// histogram is a fixed-bucket latency histogram with atomic counters —
// enough for the Prometheus text exposition without any dependency.
type histogram struct {
	counts [len(latencyBuckets) + 1]atomic.Int64
	sumNs  atomic.Int64
	count  atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(latencyBuckets) && s > latencyBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNs.Add(d.Nanoseconds())
	h.count.Add(1)
}

// Metrics is the serving subsystem's shared instrumentation: request
// outcome counters, coalescing effectiveness (batches vs requests, whose
// ratio is the achieved mean panel width), registry lifecycle counters,
// and the end-to-end solve latency histogram. All fields are updated with
// atomics, so one Metrics value is shared by the registry, every
// coalescer, and the HTTP layer.
type Metrics struct {
	// Request outcomes, counted once per Registry.Solve call.
	Requests  atomic.Int64 // every solve request received
	Solved    atomic.Int64 // completed with a solution
	Cancelled atomic.Int64 // context cancelled or deadline expired
	Rejected  atomic.Int64 // bounced by admission control (queue full)
	Failed    atomic.Int64 // any other error (unknown plan, dimension, ...)

	// Coalescing effectiveness: WidthSum/Batches is the achieved mean
	// panel width — the number of concurrent requests each matrix
	// traversal was amortised over.
	Batches  atomic.Int64 // panel dispatches issued to solvers
	WidthSum atomic.Int64 // total requests carried by those dispatches

	// Registry lifecycle.
	PlanBuilds   atomic.Int64 // plans (or IC0 variants) built cold
	Evictions    atomic.Int64 // LRU evictions under the byte budget
	ValueUpdates atomic.Int64 // numeric refactorizations applied (UpdateValues)

	// Snapshot persistence (Config.SnapshotDir).
	SnapshotLoads  atomic.Int64 // plans made resident from a snapshot (no cold build)
	SnapshotWrites atomic.Int64 // write-behind snapshot files persisted
	SnapshotErrors atomic.Int64 // snapshots refused (corrupt, stale spec) or failed writes

	// Fault tolerance.
	Retries         atomic.Int64 // solve attempts beyond the first (retry policy)
	PanicsRecovered atomic.Int64 // kernel panics contained into ErrInternal
	Shed            atomic.Int64 // requests shed below the brownout priority threshold
	Degraded        atomic.Int64 // requests refused by brownout degradation (not failures)

	latency histogram

	// stages attributes latency per lifecycle stage and outcome, fed by
	// finished traces (Registry.finishTrace): stages[s][0] for solved
	// requests, stages[s][1] for every failure class.
	stages [trace.NumStages][2]histogram

	// planStages accumulates per-plan per-stage time: plan name →
	// *planStageSums. Bounded by the registered-plan count, which the
	// registry already bounds.
	planStages sync.Map
}

// planStageSums is one plan's per-stage running totals, exported as
// stsserve_plan_stage_seconds_{sum,count}.
type planStageSums [trace.NumStages]struct {
	sumNs atomic.Int64
	count atomic.Int64
}

// observeTrace folds one finished trace into the per-stage histograms
// and, when the record names a plan, its per-plan stage totals. Stages
// the request never touched (no spans) are not observed — a histogram
// count is "requests that exercised this stage".
func (m *Metrics) observeTrace(rec trace.Record, ok bool) {
	oi := 0
	if !ok {
		oi = 1
	}
	var ps *planStageSums
	if rec.Plan != "" {
		if v, found := m.planStages.Load(rec.Plan); found {
			ps = v.(*planStageSums)
		} else {
			v, _ := m.planStages.LoadOrStore(rec.Plan, &planStageSums{})
			ps = v.(*planStageSums)
		}
	}
	for s := 0; s < trace.NumStages; s++ {
		d := rec.StageTotal(trace.Stage(s))
		if d <= 0 {
			continue
		}
		m.stages[s][oi].observe(d)
		if ps != nil {
			ps[s].sumNs.Add(int64(d))
			ps[s].count.Add(1)
		}
	}
}

// ObserveLatency records one completed solve's end-to-end latency
// (queueing + coalescing + panel solve).
func (m *Metrics) ObserveLatency(d time.Duration) { m.latency.observe(d) }

// Snapshot is a point-in-time copy of the counters, for tests and the
// stskbench workloads.
type Snapshot struct {
	Requests, Solved, Cancelled, Rejected, Failed int64
	Batches, WidthSum                             int64
	PlanBuilds, Evictions, ValueUpdates           int64
	SnapshotLoads, SnapshotWrites, SnapshotErrors int64
	Retries, PanicsRecovered, Shed, Degraded      int64
}

// Snapshot copies the counters.
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
		Requests:        m.Requests.Load(),
		Solved:          m.Solved.Load(),
		Cancelled:       m.Cancelled.Load(),
		Rejected:        m.Rejected.Load(),
		Failed:          m.Failed.Load(),
		Batches:         m.Batches.Load(),
		WidthSum:        m.WidthSum.Load(),
		PlanBuilds:      m.PlanBuilds.Load(),
		Evictions:       m.Evictions.Load(),
		ValueUpdates:    m.ValueUpdates.Load(),
		SnapshotLoads:   m.SnapshotLoads.Load(),
		SnapshotWrites:  m.SnapshotWrites.Load(),
		SnapshotErrors:  m.SnapshotErrors.Load(),
		Retries:         m.Retries.Load(),
		PanicsRecovered: m.PanicsRecovered.Load(),
		Shed:            m.Shed.Load(),
		Degraded:        m.Degraded.Load(),
	}
}

// StageLatencyTotal reports one stage's cumulative observed time and
// observation count across both outcomes — the reconciliation hook for
// tests that check the queue-wait histogram against the coalescer's
// queue-depth integral.
func (m *Metrics) StageLatencyTotal(s trace.Stage) (time.Duration, int64) {
	var sum, n int64
	for oi := 0; oi < 2; oi++ {
		sum += m.stages[s][oi].sumNs.Load()
		n += m.stages[s][oi].count.Load()
	}
	return time.Duration(sum), n
}

// latencyTotals reports the histogram's cumulative observation count and
// how many observations exceeded the given threshold (seconds) — the
// brownout controller diffs consecutive reads to get a per-tick window.
func (m *Metrics) latencyTotals(threshold float64) (total, over int64) {
	var below int64
	for i, ub := range latencyBuckets {
		if ub <= threshold {
			below += m.latency.counts[i].Load()
		}
	}
	total = m.latency.count.Load()
	return total, total - below
}

// MeanPanelWidth is the achieved mean panel width so far: requests
// dispatched / panel dispatches. Zero before the first dispatch.
func (s Snapshot) MeanPanelWidth() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.WidthSum) / float64(s.Batches)
}

// writePrometheus renders the metrics in the Prometheus text exposition
// format. The registry supplies the point-in-time gauges (queue depth,
// loaded plans, byte usage).
func (m *Metrics) writePrometheus(w io.Writer, reg *Registry) {
	s := m.Snapshot()
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, format string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s "+format+"\n", name, help, name, name, v)
	}
	counter("stsserve_requests_total", "Solve requests received.", s.Requests)
	counter("stsserve_requests_solved_total", "Solve requests completed with a solution.", s.Solved)
	counter("stsserve_requests_cancelled_total", "Solve requests cancelled or timed out.", s.Cancelled)
	counter("stsserve_requests_rejected_total", "Solve requests bounced by admission control.", s.Rejected)
	counter("stsserve_requests_failed_total", "Solve requests failed for other reasons.", s.Failed)
	counter("stsserve_solve_batches_total", "Coalesced panel dispatches issued to solvers.", s.Batches)
	counter("stsserve_solve_batched_requests_total", "Requests carried by coalesced dispatches.", s.WidthSum)
	gauge("stsserve_panel_width_mean", "Achieved mean panel width (batched requests / batches).", "%g", s.MeanPanelWidth())
	counter("stsserve_plan_builds_total", "Plans and IC0 variants built cold.", s.PlanBuilds)
	counter("stsserve_plan_evictions_total", "LRU plan evictions under the byte budget.", s.Evictions)
	counter("stsserve_value_updates_total", "Numeric refactorizations applied via UpdateValues.", s.ValueUpdates)
	counter("stsserve_snapshot_loads_total", "Plans made resident from an on-disk snapshot instead of a cold build.", s.SnapshotLoads)
	counter("stsserve_snapshot_writes_total", "Write-behind plan snapshot files persisted.", s.SnapshotWrites)
	counter("stsserve_snapshot_errors_total", "Snapshots refused as invalid or failed to persist.", s.SnapshotErrors)
	counter("stsserve_retries_total", "Solve attempts beyond the first under the retry policy.", s.Retries)
	counter("stsserve_panics_recovered_total", "Kernel panics contained into ErrInternal at engine job boundaries.", s.PanicsRecovered)
	counter("stsserve_requests_shed_total", "Requests shed below the brownout priority threshold.", s.Shed)
	counter("stsserve_requests_degraded_total", "Requests refused by brownout degradation (intentional shedding, not failures).", s.Degraded)
	bst, _ := reg.BrownoutState()
	gauge("stsserve_brownout_state", "Degradation state: 0 healthy, 1 degraded, 2 draining.", "%d", int64(bst))
	gauge("stsserve_queue_depth", "Requests currently queued across all coalescers.", "%d", reg.QueueDepth())
	gauge("stsserve_plans_registered", "Plans registered.", "%d", reg.Len())
	gauge("stsserve_plans_loaded", "Plans currently built and resident.", "%d", reg.Loaded())
	gauge("stsserve_plan_bytes", "Estimated bytes held by resident plans.", "%d", reg.BytesUsed())
	if vs := reg.versions(); len(vs) > 0 {
		fmt.Fprintf(w, "# HELP stsserve_plan_version Current value version of each registered plan.\n")
		fmt.Fprintf(w, "# TYPE stsserve_plan_version gauge\n")
		for _, v := range vs {
			fmt.Fprintf(w, "stsserve_plan_version{plan=%q} %d\n", v.name, v.version)
		}
	}

	// Latency histogram.
	fmt.Fprintf(w, "# HELP stsserve_solve_latency_seconds End-to-end solve latency (queueing + coalescing + solve).\n")
	fmt.Fprintf(w, "# TYPE stsserve_solve_latency_seconds histogram\n")
	writeHistogram(w, "stsserve_solve_latency_seconds", "", &m.latency)

	// Per-stage latency attribution, fed by finished lifecycle traces.
	fmt.Fprintf(w, "# HELP stsserve_stage_latency_seconds Per-stage solve-lifecycle latency attributed by tracing.\n")
	fmt.Fprintf(w, "# TYPE stsserve_stage_latency_seconds histogram\n")
	for s := 0; s < trace.NumStages; s++ {
		for oi, outcome := range [2]string{"ok", "error"} {
			h := &m.stages[s][oi]
			if h.count.Load() == 0 && outcome == "error" {
				continue // keep the exposition compact: error rows appear once seen
			}
			labels := fmt.Sprintf("stage=%q,outcome=%q", trace.Stage(s).String(), outcome)
			writeHistogram(w, "stsserve_stage_latency_seconds", labels, h)
		}
	}

	// Per-plan stage totals (sum/count, not buckets — cardinality is
	// plans × stages, so buckets would be disproportionate).
	m.writePlanStages(w)

	// Go runtime health read at scrape time: scheduler pressure and GC
	// pauses are the usual suspects when stage histograms shift without a
	// code change.
	writeRuntimeMetrics(w)
}

// writeHistogram renders one fixed-bucket histogram's bucket/sum/count
// lines, with optional extra labels (no surrounding braces).
func writeHistogram(w io.Writer, name, labels string, h *histogram) {
	sep := func(le string) string {
		if labels == "" {
			return fmt.Sprintf("{le=%q}", le)
		}
		return fmt.Sprintf("{%s,le=%q}", labels, le)
	}
	cum := int64(0)
	for i, ub := range latencyBuckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, sep(fmt.Sprintf("%g", ub)), cum)
	}
	cum += h.counts[len(latencyBuckets)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, sep("+Inf"), cum)
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %g\n", name, suffix, float64(h.sumNs.Load())/1e9)
	fmt.Fprintf(w, "%s_count%s %d\n", name, suffix, h.count.Load())
}

// writePlanStages renders the per-plan per-stage running totals, sorted
// by plan name for a stable exposition.
func (m *Metrics) writePlanStages(w io.Writer) {
	type row struct {
		plan string
		sums *planStageSums
	}
	var rows []row
	m.planStages.Range(func(k, v any) bool {
		rows = append(rows, row{k.(string), v.(*planStageSums)})
		return true
	})
	if len(rows) == 0 {
		return
	}
	slices.SortFunc(rows, func(a, b row) int {
		if a.plan < b.plan {
			return -1
		} else if a.plan > b.plan {
			return 1
		}
		return 0
	})
	fmt.Fprintf(w, "# HELP stsserve_plan_stage_seconds Cumulative per-plan time attributed to each lifecycle stage.\n")
	fmt.Fprintf(w, "# TYPE stsserve_plan_stage_seconds_sum counter\n")
	for _, r := range rows {
		for s := 0; s < trace.NumStages; s++ {
			if n := r.sums[s].count.Load(); n > 0 {
				fmt.Fprintf(w, "stsserve_plan_stage_seconds_sum{plan=%q,stage=%q} %g\n",
					r.plan, trace.Stage(s).String(), float64(r.sums[s].sumNs.Load())/1e9)
				fmt.Fprintf(w, "stsserve_plan_stage_seconds_count{plan=%q,stage=%q} %d\n",
					r.plan, trace.Stage(s).String(), n)
			}
		}
	}
}

// runtimeSamples are the runtime/metrics series exported at /metrics.
var runtimeSamples = []string{
	"/sched/goroutines:goroutines",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
}

// writeRuntimeMetrics exports scheduler and GC health from
// runtime/metrics: a goroutine gauge plus GC-pause and scheduling-latency
// histograms folded into the serving latency buckets (the _sum is
// approximated from bucket upper bounds and marked so in HELP).
func writeRuntimeMetrics(w io.Writer) {
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	for _, s := range samples {
		switch s.Name {
		case "/sched/goroutines:goroutines":
			if s.Value.Kind() == metrics.KindUint64 {
				fmt.Fprintf(w, "# HELP stsserve_go_goroutines Live goroutines (runtime/metrics).\n# TYPE stsserve_go_goroutines gauge\n")
				fmt.Fprintf(w, "stsserve_go_goroutines %d\n", s.Value.Uint64())
			}
		case "/gc/pauses:seconds":
			writeRuntimeHist(w, "stsserve_go_gc_pause_seconds",
				"Stop-the-world GC pause distribution (runtime/metrics; _sum approximated from bucket bounds).", s)
		case "/sched/latencies:seconds":
			writeRuntimeHist(w, "stsserve_go_sched_latency_seconds",
				"Goroutine scheduling latency distribution (runtime/metrics; _sum approximated from bucket bounds).", s)
		}
	}
}

// writeRuntimeHist folds a runtime/metrics float64 histogram into the
// fixed serving buckets and renders it.
func writeRuntimeHist(w io.Writer, name, help string, s metrics.Sample) {
	if s.Value.Kind() != metrics.KindFloat64Histogram {
		return
	}
	h := s.Value.Float64Histogram()
	var folded [len(latencyBuckets) + 1]uint64
	var approxSum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		ub := h.Buckets[i+1]
		j := 0
		for j < len(latencyBuckets) && ub > latencyBuckets[j] {
			j++
		}
		folded[j] += c
		bound := ub
		if bound > latencyBuckets[len(latencyBuckets)-1]*10 || bound != bound || bound > 1e18 {
			bound = h.Buckets[i] // +Inf upper bound: fall back to the lower edge
		}
		approxSum += float64(c) * bound
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	cum := uint64(0)
	total := uint64(0)
	for _, c := range folded {
		total += c
	}
	for j, ub := range latencyBuckets {
		cum += folded[j]
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, ub, cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, total)
	fmt.Fprintf(w, "%s_sum %g\n", name, approxSum)
	fmt.Fprintf(w, "%s_count %d\n", name, total)
}
