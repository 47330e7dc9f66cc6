package main

import (
	"context"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"stsk"
	"stsk/serve"
)

// The serve-burst workload: an in-process serve.Registry holding two STS-3
// plans of different structure takes a seeded open-loop Poisson schedule of
// bursts; every right-hand side is its own Registry.Solve call on its own
// goroutine. The coalescer and the panel kernels do the work; krylov and
// HTTP do none.
var burstSpecs = []serve.PlanSpec{
	{Name: "grid3d", Class: "grid3d", N: 20000, Method: "sts3"},
	{Name: "trimesh", Class: "trimesh", N: 20000, Method: "sts3"},
}

var defaultBurstMix = burstMix{
	rate:     330, // × mean burst size 4.5 ≈ 1,480 requests/s
	maxSize:  8,
	plans:    len(burstSpecs),
	upperP:   0.5,
	ic0P:     0.25,
	poolSize: 8,
}

const spanRegistrySolve = "serve.Registry.Solve"

// burstRef is one plan's reference: answers from plans built by stsk.Build
// from the same spec, for a seeded pool of right-hand sides.
type burstRef struct {
	spec serve.PlanSpec
	vals []float64 // matrix values, Matrix.Values order
	x4   []float64 // values ×4
	b    [][]float64
	want [2][2][][]float64 // [ic0][upper][pool index]
	// IC(0) forward answer for b[0] once the values are ×4.
	wantIC0x4 []float64
}

type burstWorkload struct {
	seed  int64
	specs []serve.PlanSpec
	mix   burstMix
	refs  []burstRef
	reg   *serve.Registry

	windows  uint64 // each window draws its own schedule stream
	from, to serveCounters

	// mutate, when set, alters answers before they are checked; tests use
	// it to prove a wrong answer is counted as failed.
	mutate func(x []float64)
}

func newBurst(seed int64) *burstWorkload {
	return &burstWorkload{seed: seed, specs: burstSpecs, mix: defaultBurstMix}
}

func (w *burstWorkload) prepare(b *buildRun) error {
	w.refs = make([]burstRef, len(w.specs))
	for p, spec := range w.specs {
		ref := &w.refs[p]
		ref.spec = spec
		var mat *stsk.Matrix
		var plan, ic *stsk.Plan
		err := b.call("stsk.Generate", &b.times.generate, func() (err error) {
			mat, err = stsk.Generate(spec.Class, spec.N)
			return err
		})
		if err != nil {
			return err
		}
		err = b.call("stsk.Build", &b.times.order, func() (err error) {
			plan, err = stsk.Build(mat, stsk.STS3)
			return err
		})
		if err != nil {
			return err
		}
		err = b.call("stsk.Plan.IC0", &b.times.ic0, func() (err error) {
			ic, err = plan.IC0()
			return err
		})
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewPCG(uint64(w.seed), uint64(1000+p)))
		for range w.mix.poolSize {
			rhs := make([]float64, plan.N())
			for i := range rhs {
				rhs[i] = 2*rng.Float64() - 1
			}
			ref.b = append(ref.b, rhs)
			for v, pl := range []*stsk.Plan{plan, ic} {
				lo, err := pl.Solve(rhs)
				if err != nil {
					return err
				}
				up, err := pl.SolveUpper(rhs)
				if err != nil {
					return err
				}
				ref.want[v][0] = append(ref.want[v][0], lo)
				ref.want[v][1] = append(ref.want[v][1], up)
			}
		}
		ref.vals = mat.Values()
		ref.x4 = make([]float64, len(ref.vals))
		for i, v := range ref.vals {
			ref.x4[i] = 4 * v
		}
		if err := plan.Refactor(ref.x4); err != nil {
			return err
		}
		ic4, err := plan.IC0()
		if err != nil {
			return err
		}
		if ref.wantIC0x4, err = ic4.Solve(ref.b[0]); err != nil {
			return err
		}
	}
	return nil
}

func (w *burstWorkload) setup(b *buildRun, tl *tally) error {
	w.reg = serve.NewRegistry(serve.Config{})
	for _, spec := range w.specs {
		err := b.call("serve.Registry.Register", &b.times.register, func() error {
			_, err := w.reg.Register(spec)
			return err
		})
		if err != nil {
			return err
		}
	}
	for p := range w.refs {
		for v, variant := range []string{serve.VariantDirect, serve.VariantIC0} {
			for u := range 2 {
				x, err := w.reg.Solve(context.Background(), w.specs[p].Name, variant, u == 1, w.refs[p].b[0])
				tl.record(err, sameBits(x, w.refs[p].want[v][u][0]))
			}
		}
	}
	return nil
}

func (w *burstWorkload) drive(d time.Duration, win *window, tl *tally) {
	sched := w.mix.schedule(w.seed, w.windows, d)
	w.windows++
	w.from = readServe(w.reg)
	var wg sync.WaitGroup
	late := runSchedule(sched, time.Now(), func(bu burst, due time.Time) {
		for j := range bu.size {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.request(bu, j, due, win, tl)
			}()
		}
	})
	wg.Wait()
	w.to = readServe(w.reg)
	win.lateMaxMs = float64(late.Nanoseconds()) / 1e6
	if win.tr != nil {
		win.breakdown = map[string]map[string]float64{
			spanRegistrySolve: stageBreakdown(w.from, w.to, win.ops(), mean(win.tr.durations(spanRegistrySolve)), registryStages),
		}
	}
}

// request sends one right-hand side of a burst and checks the answer
// bitwise against the reference plan's.
func (w *burstWorkload) request(bu burst, j int, due time.Time, win *window, tl *tally) {
	ref := &w.refs[bu.plan]
	i := (bu.rhs + j) % w.mix.poolSize
	v, u, variant := 0, 0, serve.VariantDirect
	if bu.ic0 {
		v, variant = 1, serve.VariantIC0
	}
	if bu.upper {
		u = 1
	}
	op := win.tr.newOp()
	root := win.tr.begin(op, -1, spanOp, due)
	t0 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	x, err := w.reg.Solve(ctx, ref.spec.Name, variant, bu.upper, ref.b[i])
	t1 := time.Now()
	win.tr.add(op, root, spanRegistrySolve, t0, t1)
	win.tr.end(root, t1)
	if w.mutate != nil && err == nil {
		w.mutate(x)
	}
	if tl.record(err, sameBits(x, ref.want[v][u][i])) {
		win.lat.add(float64(t1.Sub(due).Nanoseconds()) / 1e6)
	}
	win.done.Add(1)
}

// updates times one phase of value updates of the grid3d plan, each
// Registry.UpdateValues followed by the first IC(0) answer at the new values
// (which re-factors the dropped variant), alternating the values between ×4
// and ×1.
func (w *burstWorkload) updates(tl *tally) []float64 {
	ref := &w.refs[0]
	var out []float64
	for u := range updatesPerPhase {
		vals, want := ref.x4, ref.wantIC0x4
		if u%2 == 1 {
			vals, want = ref.vals, ref.want[1][0][0]
		}
		runtime.GC() // as in pcg-ic0: each update starts from the same heap state
		t0 := time.Now()
		_, err := w.reg.UpdateValues(ref.spec.Name, vals, 0)
		var x []float64
		if err == nil {
			x, err = w.reg.Solve(context.Background(), ref.spec.Name, serve.VariantIC0, false, ref.b[0])
		}
		ms := msSince(t0)
		if tl.record(err, sameBits(x, want)) {
			out = append(out, ms)
		}
	}
	return out
}

func (w *burstWorkload) layers(win *window) map[string]float64 {
	m := serveLayers(w.from, w.to, win.depth)
	m["serve.solve_ms_p50"] = median(win.tr.durations(spanRegistrySolve))
	return m
}

func (w *burstWorkload) teardown() {
	if w.reg != nil {
		w.reg.Close()
		w.reg = nil
	}
}

func (w *burstWorkload) queueDepth() func() int {
	reg := w.reg
	return reg.QueueDepth
}
