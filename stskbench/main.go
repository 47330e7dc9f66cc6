// Command stskbench is the repository's benchmark: it runs one of three
// workloads against the public stsk, krylov and serve APIs from a single
// process, checks every answer, and prints each metric by name with its
// unit. README.md in this directory explains why each workload and metric
// was chosen.
//
// Usage (from the repository root; run.sh builds and calls this binary):
//
//	bash stskbench/run.sh --workload pcg-ic0 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 the run is split into an untraced and a traced half, spans are
// recorded around the benchmark's own calls into each layer, and the last
// line carries the per-layer metrics. Earlier stdout lines hold the run
// record (commit, Go version, CPUs, seed, hypervisor steal) and the tail
// diagnostics that are printed but not gated.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

// setupReps is how many times a run sets its workload up from scratch;
// setup_s is the median, and the last set-up serves the timed window.
const setupReps = 7

// opTimeout bounds any single operation, so a hung program fails the run
// instead of outliving the run's time limit.
const opTimeout = 20 * time.Second

// Workloads that time value updates outside their window take
// updatesPerPhase samples back to back before the window and as many after
// it, so the run's update_p50_ms does not rest on one moment of host noise.
// The count is even, so a phase leaves the values as it found them (updates
// alternate ×4 and ×1).
const updatesPerPhase = 12

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the gated metrics printed by untraced runs, in the order
// of BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"live_heap_mb", "MB"},
	{"update_p50_ms", "ms"},
}

// perLayer lists the metrics printed by traced runs, in the order of
// BENCHMARK.json. Every workload prints every name; a layer a workload does
// not exercise reads 0 there, which is the prediction for that pairing.
var perLayer = []metricDef{
	{"build.generate_ms", "ms"},
	{"build.order_ms", "ms"},
	{"build.ic0_ms", "ms"},
	{"build.register_ms", "ms"},
	{"krylov.iterations", "count"},
	{"krylov.self_ms_per_iter", "ms"},
	{"krylov.precond_share", "share"},
	{"solve.apply_us_p50", "us"},
	{"solve.computed_bytes_per_apply", "bytes"},
	{"solve.computed_gb_per_s", "GB/s"},
	{"serve.solve_ms_p50", "ms"},
	{"serve.mean_panel_width", "count"},
	{"serve.queue_wait_us_mean", "us"},
	{"serve.coalesce_wait_us_mean", "us"},
	{"serve.kernel_us_mean", "us"},
	{"serve.queue_depth_mean", "count"},
	{"serve.retries", "count"},
	{"serve.rejected", "count"},
	{"serve.value_updates", "count"},
	{"serve.plan_builds", "count"},
	{"serve.snapshot_writes", "count"},
	{"serve.snapshot_errors", "count"},
	{"http.handler_ms_p50", "ms"},
	{"http.update_handler_ms_p50", "ms"},
	{"http.transport_ms_p50", "ms"},
	{"http.request_bytes", "bytes"},
	{"http.response_bytes", "bytes"},
	{"go.alloc_bytes_per_op", "bytes"},
	{"go.gc_cycles", "count"},
	{"go.sched_latency_p90_us", "us"},
	{"loadgen.late_ms_max", "ms"},
	{"env.steal_share", "share"},
	{"tail.p90_ms", "ms"},
	{"tail.pmax_ms", "ms"},
	{"tail.samples_beyond", "count"},
	{"tail.samples", "count"},
	{"failed_share", "share"},
	{"trace.overhead_ms", "ms"},
	{"trace.self_sum_ratio", "share"},
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(seed int64, out string) workload{
	"pcg-ic0":     func(seed int64, _ string) workload { return newPCG(seed) },
	"serve-burst": func(seed int64, _ string) workload { return newBurst(seed) },
	"http-update": func(seed int64, out string) workload { return newHTTPUpdate(seed, out) },
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line, the benchmark's contract with its caller.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: pcg-ic0, serve-burst or http-update")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 30, "length of the timed window in seconds")
	traced := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	out := flag.String("out", "stskbench-out", "directory for span files, summaries and snapshot scratch")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "stskbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "stskbench:", err)
		os.Exit(1)
	}
	res, err := run(mk(*seed, *out), runConfig{
		workload: *name,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		traced:   *traced == 1,
		out:      *out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "stskbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stskbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	out      string
}

// run prepares the workload's inputs and references, sets it up setupReps
// times, drives the timed window (two halves when traced) and assembles
// the printed result.
func run(w workload, cfg runConfig) (result, error) {
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	prep := startBuild(tr, "prepare")
	err := w.prepare(prep)
	prep.finish()
	if err != nil {
		return result{}, fmt.Errorf("prepare %s: %w", cfg.workload, err)
	}
	var tl tally
	setups := make([]float64, 0, setupReps)
	builds := make([]buildTimes, 0, setupReps)
	for i := range setupReps {
		if i > 0 {
			w.teardown()
		}
		runtime.GC()
		t0 := time.Now()
		b := startBuild(tr, "setup")
		err := w.setup(b, &tl)
		b.finish()
		setups = append(setups, time.Since(t0).Seconds())
		builds = append(builds, prep.times.plus(b.times))
		if err != nil {
			w.teardown()
			return result{}, fmt.Errorf("set up %s: %w", cfg.workload, err)
		}
	}
	defer w.teardown()

	rec := newRunRecord(cfg)
	res := result{Metrics: map[string]metricValue{}}
	if !cfg.traced {
		upd := w.updates(&tl)
		runtime.GC()
		win := measure(w, cfg.window, nil, &tl)
		upd = append(upd, w.updates(&tl)...)
		rec.finish(win)
		printLine(map[string]any{"record": rec, "diagnostics": diagnostics(win, &tl)})
		vals := map[string]float64{
			"setup_s":        median(setups),
			"latency_p50_ms": median(win.lat.values()),
			"cpu_ms_per_op":  win.cpuMsPerOp(),
			"live_heap_mb":   median(win.heapMB),
			"update_p50_ms":  median(append(win.upd.values(), upd...)),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{vals[d.name], d.unit}
		}
	} else {
		runtime.GC()
		half := cfg.window / 2
		plain := measure(w, half, nil, &tl)
		win := measure(w, half, tr, &tl)
		rec.finish(win)
		vals := layerMetrics(w, win, builds, &tl)
		vals["trace.overhead_ms"] = median(win.lat.values()) - median(plain.lat.values())
		sums := tr.summarize()
		vals["trace.self_sum_ratio"] = selfSumRatio(sums)
		if err := tr.write(cfg.out, cfg.workload, cfg.seed, sums, win.breakdown); err != nil {
			return result{}, err
		}
		printLine(map[string]any{"record": rec, "diagnostics": diagnostics(win, &tl), "self_time": sums})
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{vals[d.name], d.unit}
		}
	}
	res.Attempted, res.Failed = tl.attempted.Load(), tl.failed()
	res.Correct = res.Attempted > 0 && res.Failed == 0
	if res.Attempted == 0 {
		return res, errors.New("no operation completed")
	}
	return res, nil
}

// layerMetrics assembles the per-layer metrics shared by every workload
// (build spans, Go runtime, load generator, host, tails) and merges in the
// workload's own layer counters.
func layerMetrics(w workload, win *window, builds []buildTimes, tl *tally) map[string]float64 {
	pick := func(f func(b buildTimes) float64) float64 {
		xs := make([]float64, len(builds))
		for i, b := range builds {
			xs[i] = f(b)
		}
		return median(xs)
	}
	lat := win.lat.values()
	v, _, beyond, _ := tailPercentile(lat, 10)
	vals := map[string]float64{
		"build.generate_ms":       pick(func(b buildTimes) float64 { return b.generate }),
		"build.order_ms":          pick(func(b buildTimes) float64 { return b.order }),
		"build.ic0_ms":            pick(func(b buildTimes) float64 { return b.ic0 }),
		"build.register_ms":       pick(func(b buildTimes) float64 { return b.register }),
		"go.alloc_bytes_per_op":   win.allocBytes / float64(max(win.ops(), 1)),
		"go.gc_cycles":            win.gcCycles,
		"go.sched_latency_p90_us": win.schedP90us,
		"loadgen.late_ms_max":     win.lateMaxMs,
		"env.steal_share":         win.steal,
		"tail.p90_ms":             percentile(lat, 90),
		"tail.pmax_ms":            v,
		"tail.samples_beyond":     float64(beyond),
		"tail.samples":            float64(len(lat)),
		"failed_share":            tl.failedShare(),
	}
	for k, x := range w.layers(win) {
		vals[k] = x
	}
	return vals
}

// diagnostics are printed beside every result but gated nowhere: tail
// percentiles swing too much between identical runs to gate (README.md).
func diagnostics(win *window, tl *tally) map[string]any {
	lat := win.lat.values()
	v, level, beyond, _ := tailPercentile(lat, 10)
	return map[string]any{
		"ops":                  win.ops(),
		"samples":              len(lat),
		"p50_ms":               median(lat),
		"p90_ms":               percentile(lat, 90),
		"pmax_ms":              v,
		"pmax_level":           level,
		"pmax_samples_beyond":  beyond,
		"failed_share":         tl.failedShare(),
		"wrong_answers":        tl.wrong.Load(),
		"errors":               tl.errored.Load(),
		"loadgen_late_ms_max":  win.lateMaxMs,
		"update_samples":       len(win.upd.values()),
		"cpu_ms_per_op":        win.cpuMsPerOp(),
		"sched_latency_p90_us": win.schedP90us,
	}
}

func printLine(v any) {
	line, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stskbench: record:", err)
		return
	}
	fmt.Println(string(line))
}
