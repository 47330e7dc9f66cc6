package main

import (
	"time"

	"stsk/internal/trace"
	"stsk/serve"
)

// serveCounters is one read of the counters the serving layer exports:
// Metrics().Snapshot() and the per-stage latency totals.
type serveCounters struct {
	snap  serve.Snapshot
	stage [trace.NumStages]struct {
		sum time.Duration
		n   int64
	}
}

func readServe(reg *serve.Registry) serveCounters {
	c := serveCounters{snap: reg.Metrics().Snapshot()}
	for s := range trace.NumStages {
		c.stage[s].sum, c.stage[s].n = reg.Metrics().StageLatencyTotal(trace.Stage(s))
	}
	return c
}

// stageMeanUs is one stage's mean time per observation between two reads,
// in microseconds.
func stageMeanUs(a, b serveCounters, s trace.Stage) float64 {
	n := b.stage[s].n - a.stage[s].n
	if n == 0 {
		return 0
	}
	return float64((b.stage[s].sum - a.stage[s].sum).Nanoseconds()) / 1e3 / float64(n)
}

// serveLayers turns two reads around a window into the serve per-layer
// metrics; depth holds the queue-depth samples taken during the window.
func serveLayers(a, b serveCounters, depth []float64) map[string]float64 {
	d := func(f func(s serve.Snapshot) int64) float64 { return float64(f(b.snap) - f(a.snap)) }
	m := map[string]float64{
		"serve.queue_wait_us_mean":    stageMeanUs(a, b, trace.StageQueueWait),
		"serve.coalesce_wait_us_mean": stageMeanUs(a, b, trace.StageCoalesceWait),
		"serve.kernel_us_mean":        stageMeanUs(a, b, trace.StageKernel),
		"serve.queue_depth_mean":      mean(depth),
		"serve.retries":               d(func(s serve.Snapshot) int64 { return s.Retries }),
		"serve.rejected":              d(func(s serve.Snapshot) int64 { return s.Rejected }),
		"serve.value_updates":         d(func(s serve.Snapshot) int64 { return s.ValueUpdates }),
		"serve.plan_builds":           d(func(s serve.Snapshot) int64 { return s.PlanBuilds }),
		"serve.snapshot_writes":       d(func(s serve.Snapshot) int64 { return s.SnapshotWrites }),
		"serve.snapshot_errors":       d(func(s serve.Snapshot) int64 { return s.SnapshotErrors }),
	}
	if batches := d(func(s serve.Snapshot) int64 { return s.Batches }); batches > 0 {
		m["serve.mean_panel_width"] = d(func(s serve.Snapshot) int64 { return s.WidthSum }) / batches
	}
	return m
}

// stageBreakdown splits the mean time of one enclosing span per operation
// (spanMs, from the benchmark's own spans) into the serving stages that
// run directly inside it, per operation, plus the unattributed rest. The
// stages nested inside the kernel stage (epoch pin, dispatch, sweep) are
// listed apart and excluded from the sum.
func stageBreakdown(a, b serveCounters, ops int64, spanMs float64, stages []trace.Stage) map[string]float64 {
	out := map[string]float64{"span_ms_mean": spanMs}
	if ops == 0 {
		return out
	}
	perOp := func(s trace.Stage) float64 {
		return float64((b.stage[s].sum - a.stage[s].sum).Nanoseconds()) / 1e6 / float64(ops)
	}
	rest := spanMs
	for _, s := range stages {
		out[s.String()+"_ms"] = perOp(s)
		rest -= perOp(s)
	}
	out["unattributed_ms"] = rest
	for _, s := range []trace.Stage{trace.StageEpochPin, trace.StageDispatch, trace.StageSweep} {
		out["within_kernel."+s.String()+"_ms"] = perOp(s)
	}
	return out
}

// registryStages are the stages recorded directly inside Registry.Solve.
var registryStages = []trace.Stage{
	trace.StageRegistry, trace.StageEnqueue, trace.StageQueueWait,
	trace.StageCoalesceWait, trace.StageRetryBackoff, trace.StageKernel,
}

// httpOnlyStages are the stages a solve handler records around the
// registry call.
var httpOnlyStages = []trace.Stage{trace.StageAdmission, trace.StageSerialize}
