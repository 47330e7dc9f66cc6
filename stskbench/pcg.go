package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"time"

	"stsk"
	"stsk/krylov"
)

// The pcg-ic0 workload: one caller in a closed loop running IC(0)-
// preconditioned CG back to back on one STS-3 grid3d plan, each solve on
// a fresh seeded manufactured right-hand side. Only krylov and the
// single-RHS sweeps (IC0Preconditioner.Apply) work here; serve does none.
const (
	pcgClass   = "grid3d"
	pcgRows    = 100000 // grid3d rounds this to 46³ = 97,336 rows
	pcgRtol    = 1e-10
	pcgMaxIter = 500
	pcgMaxErr  = 1e-6 // max |x - xTrue| accepted
)

// Span names of the pcg-ic0 operation tree.
const (
	spanOp       = "op"
	spanCG       = "krylov.CG"
	spanIC0Apply = "stsk.IC0Preconditioner.Apply"
)

type pcgWorkload struct {
	seed int64
	mat  *stsk.Matrix
	plan *stsk.Plan
	ic0  *stsk.IC0Preconditioner
	next uint64 // operation counter; seeds each manufactured solution

	xTrue, b []float64
	iters    int64 // CG iterations in the last window
	solves   int64 // CG solves in the last window
}

func newPCG(seed int64) *pcgWorkload { return &pcgWorkload{seed: seed} }

func (w *pcgWorkload) prepare(*buildRun) error { return nil }

func (w *pcgWorkload) setup(b *buildRun, tl *tally) error {
	err := b.call("stsk.Generate", &b.times.generate, func() (err error) {
		w.mat, err = stsk.Generate(pcgClass, pcgRows)
		return err
	})
	if err != nil {
		return err
	}
	err = b.call("stsk.Build", &b.times.order, func() (err error) {
		w.plan, err = stsk.Build(w.mat, stsk.STS3)
		return err
	})
	if err != nil {
		return err
	}
	err = b.call("stsk.NewIC0", &b.times.ic0, func() (err error) {
		w.ic0, err = stsk.NewIC0(w.plan)
		return err
	})
	if err != nil {
		return err
	}
	w.xTrue = make([]float64, w.plan.N())
	w.b = make([]float64, w.plan.N())
	w.solveOne(nil, tl) // a failed answer is counted, not fatal
	return nil
}

// solveOne runs one CG solve on a fresh manufactured system and checks it:
// converged, and within pcgMaxErr of the manufactured solution. It returns
// the solve's latency and iteration count; err is set only for a failed
// operation, which tl has already counted.
func (w *pcgWorkload) solveOne(tr *tracer, tl *tally) (ms float64, iters int, err error) {
	rng := rand.New(rand.NewPCG(uint64(w.seed), w.next))
	w.next++
	for i := range w.xTrue {
		w.xTrue[i] = 2*rng.Float64() - 1
	}
	w.plan.ApplySymmetric(w.b, w.xTrue)

	op := tr.newOp()
	var pc stsk.Preconditioner = w.ic0
	t0 := time.Now()
	root := tr.begin(op, -1, spanOp, t0)
	cg := tr.begin(op, root, spanCG, t0)
	if tr != nil {
		pc = &timedPrecond{inner: w.ic0, tr: tr, op: op, parent: cg}
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	x, st, err := krylov.CG(ctx, w.plan, w.b,
		krylov.WithPreconditioner(pc),
		krylov.WithTolerance(pcgRtol),
		krylov.WithMaxIterations(pcgMaxIter))
	t1 := time.Now()
	tr.end(cg, t1)
	tr.end(root, t1)
	right := err == nil && maxAbsDiff(x, w.xTrue) <= pcgMaxErr
	if !tl.record(err, right) {
		if err == nil {
			err = fmt.Errorf("pcg-ic0: solve %d off by %g", w.next-1, maxAbsDiff(x, w.xTrue))
		}
		return 0, st.Iterations, err
	}
	return float64(t1.Sub(t0).Nanoseconds()) / 1e6, st.Iterations, nil
}

func (w *pcgWorkload) drive(d time.Duration, win *window, tl *tally) {
	w.iters, w.solves = 0, 0
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		ms, iters, err := w.solveOne(win.tr, tl)
		win.done.Add(1)
		w.iters += int64(iters)
		w.solves++
		if err == nil {
			win.lat.add(ms)
		}
	}
}

// updates times one phase of numeric value updates as a PCG caller makes
// them between time steps — Plan.Refactor with new values, a fresh IC(0)
// factor, and the first preconditioner application — alternating the
// values between ×4 and ×1. IC(0) of 4A is exactly 2L̂, so each answer
// is checked bitwise against the ×1 answer scaled by a power of two. A
// collection before each update keeps whether a GC cycle lands inside it
// from splitting the samples into two modes.
func (w *pcgWorkload) updates(tl *tally) []float64 {
	vals := w.mat.Values()
	scaled := make([]float64, len(vals))
	for i, v := range vals {
		scaled[i] = 4 * v
	}
	rng := rand.New(rand.NewPCG(uint64(w.seed), math.MaxUint64))
	r := make([]float64, w.plan.N())
	for i := range r {
		r[i] = 2*rng.Float64() - 1
	}
	z1 := make([]float64, len(r))
	if err := w.ic0.Apply(z1, r); !tl.record(err, true) {
		return nil
	}
	z := make([]float64, len(r))
	var out []float64
	for u := range updatesPerPhase {
		nv, f := scaled, 0.25
		if u%2 == 1 {
			nv, f = vals, 1
		}
		runtime.GC() // each update starts from the same heap state
		t0 := time.Now()
		err := w.plan.Refactor(nv)
		if err == nil {
			w.ic0.Close()
			w.ic0, err = stsk.NewIC0(w.plan)
		}
		if err == nil {
			err = w.ic0.Apply(z, r)
		}
		ms := msSince(t0)
		right := true
		for i := range z {
			right = right && math.Float64bits(z[i]) == math.Float64bits(z1[i]*f)
		}
		if tl.record(err, right) {
			out = append(out, ms)
		}
		if err != nil {
			break
		}
	}
	return out
}

func (w *pcgWorkload) layers(win *window) map[string]float64 {
	tr := win.tr
	cg := tr.durations(spanCG)
	apply := tr.durations(spanIC0Apply)
	applyUs := median(apply) * 1000
	st := w.ic0.Factor().Stats()
	bytes := packedSweepBytes(st.NNZ, int64(st.Rows)) * 2
	m := map[string]float64{
		"krylov.iterations":              float64(w.iters) / float64(max(w.solves, 1)),
		"krylov.self_ms_per_iter":        sum(tr.childFree(spanCG, spanIC0Apply)) / float64(max(w.iters, 1)),
		"krylov.precond_share":           sum(apply) / sum(cg),
		"solve.apply_us_p50":             applyUs,
		"solve.computed_bytes_per_apply": bytes,
	}
	if applyUs > 0 {
		m["solve.computed_gb_per_s"] = bytes / (applyUs * 1e3)
	}
	return m
}

func (w *pcgWorkload) teardown() {
	if w.ic0 != nil {
		w.ic0.Close()
	}
	w.mat, w.plan, w.ic0 = nil, nil, nil
}

func (w *pcgWorkload) queueDepth() func() int { return nil }

// timedPrecond records a span around every preconditioner application.
type timedPrecond struct {
	inner  stsk.Preconditioner
	tr     *tracer
	op     int64
	parent int
}

func (p *timedPrecond) Apply(z, r []float64) error {
	t0 := time.Now()
	err := p.inner.Apply(z, r)
	p.tr.add(p.op, p.parent, spanIC0Apply, t0, time.Now())
	return err
}

// packedSweepBytes is the computed (not measured) compulsory traffic of one
// triangular sweep over the packed layout of a factor with nnz stored
// entries (diagonal included) and n rows: an 8-byte value and a 4-byte
// column index per off-diagonal entry, and per row a 4-byte row pointer,
// the 8-byte diagonal, and the 8-byte right-hand-side read and solution
// write. Gathers of earlier solution entries are assumed cache hits.
func packedSweepBytes(nnz, n int64) float64 {
	return float64((nnz-n)*12 + n*28)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func maxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	m := 0.0
	for i := range a {
		m = max(m, math.Abs(a[i]-b[i]))
	}
	return m
}
