package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stsk"
	"stsk/internal/faultinject"
)

// TestCoalescerShipsQueueBehindParkedPanel pins the panel rule
// deterministically: a panel ships what is queued when it is sealed. The
// first request ships alone and its dispatch is parked by an injected
// latency; the requests enqueued while it is parked must ship together
// as the next panel — 2 batches, widths 1 and 5. Waiting on Fired keeps
// the test deterministic on one CPU.
func TestCoalescerShipsQueueBehindParkedPanel(t *testing.T) {
	ref := refPlan(t, "grid3d", 1000, stsk.STS3)
	solver := ref.NewSolver()
	defer solver.Close()
	met := &Metrics{}
	c := newCoalescer(solver, false, 64, met)
	withFaults(t, "coalescer.dispatch:latency:count=1,d=200ms", 1)

	reqs := make([]*solveReq, 6)
	for i := range reqs {
		reqs[i] = &solveReq{ctx: context.Background(), b: manufacturedRHS(ref, i), x: make([]float64, ref.N()), done: make(chan error, 1)}
	}
	if err := c.enqueue(reqs[0]); err != nil {
		t.Fatal(err)
	}
	c.start()
	defer c.close()
	for deadline := time.Now().Add(10 * time.Second); faultinject.Fired(faultinject.CoalescerDispatch) == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first panel never reached dispatch")
		}
	}
	for _, r := range reqs[1:] {
		if err := c.enqueue(r); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range reqs {
		if err := <-r.done; err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		want, _ := ref.Solve(r.b)
		assertBitwise(t, r.x, want, "coalesced request")
	}

	snap := met.Snapshot()
	if snap.Batches != 2 {
		t.Errorf("batches = %d, want 2 (the parked singleton, then the queue behind it)", snap.Batches)
	}
	if snap.WidthSum != 6 {
		t.Errorf("width sum = %d, want 6", snap.WidthSum)
	}
}

// TestCoalescerQueueFull pins admission control: with the dispatcher not
// yet draining, a queue at capacity bounces further requests with
// ErrQueueFull instead of queueing unboundedly.
func TestCoalescerQueueFull(t *testing.T) {
	ref := refPlan(t, "grid3d", 500, stsk.STS3)
	solver := ref.NewSolver()
	defer solver.Close()
	c := newCoalescer(solver, false, 2, &Metrics{})

	mk := func(i int) *solveReq {
		return &solveReq{ctx: context.Background(), b: manufacturedRHS(ref, i), x: make([]float64, ref.N()), done: make(chan error, 1)}
	}
	q1, q2 := mk(1), mk(2)
	if err := c.enqueue(q1); err != nil {
		t.Fatal(err)
	}
	if err := c.enqueue(q2); err != nil {
		t.Fatal(err)
	}
	if err := c.enqueue(mk(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third enqueue on cap-2 queue: err = %v, want ErrQueueFull", err)
	}
	// Close drains gracefully: the two admitted requests still complete.
	c.start()
	c.close()
	for i, r := range []*solveReq{q1, q2} {
		if err := <-r.done; err != nil {
			t.Fatalf("drained request %d: %v", i, err)
		}
	}
	if err := c.enqueue(mk(4)); !errors.Is(err, errCoalescerClosed) {
		t.Fatalf("enqueue after close: err = %v, want errCoalescerClosed", err)
	}
}

// hammerPlan pairs a registry spec with an identically built reference
// plan's pre-manufactured right-hand sides and expected solutions.
type hammerPlan struct {
	name string
	bs   [][]float64
	fwd  [][]float64
	bwd  [][]float64
}

func buildHammerPlan(t *testing.T, reg *Registry, name, class string, n, nrhs int) *hammerPlan {
	t.Helper()
	if _, err := reg.Register(PlanSpec{Name: name, Class: class, N: n}); err != nil {
		t.Fatal(err)
	}
	ref := refPlan(t, class, n, stsk.STS3)
	hp := &hammerPlan{name: name}
	for i := 0; i < nrhs; i++ {
		b := manufacturedRHS(ref, 100*i+len(class))
		f, err := ref.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		u, err := ref.SolveUpper(b)
		if err != nil {
			t.Fatal(err)
		}
		hp.bs = append(hp.bs, b)
		hp.fwd = append(hp.fwd, f)
		hp.bwd = append(hp.bwd, u)
	}
	return hp
}

// TestCoalescerHammer race-hammers the full serving path: N goroutines ×
// mixed plans × both sweep directions × random cancellations, asserting
// every successful response is bitwise identical to Plan.Solve and every
// failure is a context error — and that cancelled requests never poison
// the shared solver for their panel-mates.
func TestCoalescerHammer(t *testing.T) {
	reg := NewRegistry(Config{QueueCap: 1024})
	defer reg.Close()
	plans := []*hammerPlan{
		buildHammerPlan(t, reg, "g3", "grid3d", 1200, 6),
		buildHammerPlan(t, reg, "tm", "trimesh", 1200, 6),
	}

	const goroutines = 8
	const iters = 50
	var cancelled, solved atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for it := 0; it < iters; it++ {
				hp := plans[rng.Intn(len(plans))]
				ri := rng.Intn(len(hp.bs))
				upper := rng.Intn(2) == 1
				ctx := context.Background()
				var cancel context.CancelFunc
				doomed := rng.Intn(4) == 0
				if doomed {
					ctx, cancel = context.WithCancel(ctx)
					cancel() // dead before it even queues
				}
				x, err := reg.Solve(ctx, hp.name, VariantDirect, upper, hp.bs[ri])
				if cancel != nil {
					cancel()
				}
				switch {
				case err == nil:
					want := hp.fwd[ri]
					if upper {
						want = hp.bwd[ri]
					}
					for i := range x {
						if x[i] != want[i] {
							t.Errorf("%s upper=%v rhs %d: bit difference at %d", hp.name, upper, ri, i)
							return
						}
					}
					solved.Add(1)
				case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
					cancelled.Add(1)
				default:
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}(int64(g) + 42)
	}
	wg.Wait()
	if solved.Load() == 0 {
		t.Fatal("no request solved")
	}
	if cancelled.Load() == 0 {
		t.Fatal("no request cancelled — the hammer lost its random cancellations")
	}
	snap := reg.Metrics().Snapshot()
	if snap.Solved != solved.Load() || snap.Cancelled != cancelled.Load() {
		t.Errorf("metrics drift: solved %d/%d cancelled %d/%d",
			snap.Solved, solved.Load(), snap.Cancelled, cancelled.Load())
	}
}

// TestCoalescerLoadMeanWidth is the acceptance load test: ≥32 in-flight
// single-RHS requests against one plan must coalesce to a mean panel
// width above 2 with every solution bitwise identical to Plan.Solve.
func TestCoalescerLoadMeanWidth(t *testing.T) {
	reg := NewRegistry(Config{QueueCap: 256})
	defer reg.Close()
	hp := buildHammerPlan(t, reg, "g3", "grid3d", 3000, 8)

	const clients = 32
	const perClient = 25
	var wg sync.WaitGroup
	var failures atomic.Int64
	start := make(chan struct{})
	for cidx := 0; cidx < clients; cidx++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			<-start
			for it := 0; it < perClient; it++ {
				ri := rng.Intn(len(hp.bs))
				x, err := reg.Solve(context.Background(), "g3", VariantDirect, false, hp.bs[ri])
				if err != nil {
					t.Errorf("solve: %v", err)
					failures.Add(1)
					return
				}
				for i := range x {
					if x[i] != hp.fwd[ri][i] {
						t.Errorf("rhs %d: bit difference at %d", ri, i)
						failures.Add(1)
						return
					}
				}
			}
		}(int64(cidx))
	}
	close(start)
	wg.Wait()
	if failures.Load() > 0 {
		t.FailNow()
	}
	snap := reg.Metrics().Snapshot()
	if snap.Solved != clients*perClient {
		t.Fatalf("solved = %d, want %d", snap.Solved, clients*perClient)
	}
	if w := snap.MeanPanelWidth(); w <= 2 {
		t.Errorf("mean panel width = %.2f, want > 2 under %d concurrent clients", w, clients)
	} else {
		t.Logf("mean panel width %.2f over %d batches", w, snap.Batches)
	}
}

// TestCoalescerCancelPromptness: a request with an expired deadline
// returns promptly even while the queue is busy, and the shared solver
// keeps serving correct solutions afterwards.
func TestCoalescerCancelPromptness(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close()
	hp := buildHammerPlan(t, reg, "g3", "grid3d", 2000, 2)

	// Background load keeps the dispatcher busy.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_, _ = reg.Solve(context.Background(), "g3", VariantDirect, false, hp.bs[0])
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Microsecond)
		begin := time.Now()
		_, err := reg.Solve(ctx, "g3", VariantDirect, false, hp.bs[1])
		elapsed := time.Since(begin)
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
			t.Fatalf("doomed solve %d: unexpected error %v", i, err)
		}
		if elapsed > 2*time.Second {
			t.Fatalf("doomed solve %d took %v — cancellation is not prompt", i, elapsed)
		}
	}
	close(stop)
	wg.Wait()

	// Not poisoned: a clean solve still answers bitwise.
	x, err := reg.Solve(context.Background(), "g3", VariantDirect, false, hp.bs[1])
	if err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, x, hp.fwd[1], "post-cancellation solve")
}
