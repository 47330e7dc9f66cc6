package solve

import (
	"runtime"
	"sync"
	"sync/atomic"

	"stsk/internal/csrk"
	"stsk/internal/faultinject"
	"stsk/internal/panicsafe"
	"stsk/internal/sparse"
)

// graphRun is the shared state of one cooperative solve: the
// point-to-point replacement for the paper's barrier schedule (Barrier).
// Instead of all workers meeting at a barrier after every pack, each
// task (a contiguous super-row chunk of one pack, csrk.TaskDAG) carries an
// atomic counter of unfinished direct predecessors. A worker finishing a
// task decrements its successors' counters and publishes any task that
// hits zero to a wait-free ready queue, then immediately claims the next
// ready task — so independent subtrees of the dependency DAG flow through
// the workers without ever synchronising with each other.
//
// The ready queue is a fixed array of one slot per task: publishers claim
// a slot with an atomic tail counter and store task+1 into it; consumers
// claim slots in order with an atomic head counter and wait for their
// slot's store. Every task is published exactly once (its counter reaches
// zero exactly once; roots are published at reset), so a consumer holding
// slot h < NumTasks always gets a task eventually, and consumers beyond
// NumTasks exit. Claiming is wait-free; waiting spins briefly and then
// parks on a condition variable so an over-subscribed machine is not
// burned by busy polling.
//
// Each row is computed by exactly one worker with the sequential kernel's
// operation order, so results stay bitwise
// identical to Sequential. A run's arrays are allocated when the
// engine's pool has no run to hand out and reset per solve — steady-state
// solves allocate nothing.
type graphRun struct {
	dag     *csrk.TaskDAG
	pk      *sparse.Packed // factor of the epoch pinned at dispatch (L′ᵀ when reverse)
	x, b    []float64      // row-major n×kw panels when kw > 1
	kw      int
	reverse bool

	// fac, when set, makes the run an IC(0) factorisation: each task
	// factors its rows (factorRun.rows) instead of sweeping them. A
	// factor's row i reads exactly the rows forward substitution's row i
	// reads, so the forward schedule orders it.
	fac *factorRun

	remaining []atomic.Int32 // per task: unfinished direct deps (succs when reverse)
	slots     []atomic.Int32 // ready queue; a slot holds task id + 1
	head      atomic.Int32   // next slot to consume
	tail      atomic.Int32   // next slot to publish

	mu       sync.Mutex
	cond     *sync.Cond
	sleepers atomic.Int32 // consumers parked (or about to park) on cond

	// The helpers still sweeping and the first failure of the solve. A
	// failed task still completes (runTask recovers, work always calls
	// complete), so successors are never stranded — the solve finishes
	// and reports.
	completion
}

func newGraphRun(dag *csrk.TaskDAG) *graphRun {
	g := &graphRun{
		dag:       dag,
		remaining: make([]atomic.Int32, dag.NumTasks()),
		slots:     make([]atomic.Int32, dag.NumTasks()),
	}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// reset prepares the run for one solve. Called before the run is offered
// to any helper, so plain stores suffice.
func (g *graphRun) reset(pk *sparse.Packed, x, b []float64, kw int, reverse bool) {
	g.pk, g.x, g.b, g.kw, g.reverse = pk, x, b, kw, reverse
	g.arm()
}

// arm readies the ready queue and the dependency counters for one call,
// in the run's direction: every root of the DAG (or, in reverse, every
// sink) published, every other task waiting on its count.
func (g *graphRun) arm() {
	g.head.Store(0)
	nt := g.dag.NumTasks()
	for t := 0; t < nt; t++ {
		g.slots[t].Store(0)
	}
	tail := int32(0)
	for t := 0; t < nt; t++ {
		var deps int32
		if g.reverse {
			deps = g.dag.SuccPtr[t+1] - g.dag.SuccPtr[t]
		} else {
			deps = g.dag.PredPtr[t+1] - g.dag.PredPtr[t]
		}
		g.remaining[t].Store(deps)
		if deps == 0 {
			g.slots[tail].Store(int32(t) + 1)
			tail++
		}
	}
	g.tail.Store(tail)
}

// runShare is every participant's entry into a graph solve — the
// caller's and each joined helper's — and its outer panic-containment
// boundary. An injected engine.job fault makes this participant bow out
// before claiming anything — any subset of participants drains the ready
// queue, so its mates finish the solve alone and the run reports the
// failure.
func (g *graphRun) runShare() {
	defer func() {
		if p := recover(); p != nil {
			g.fail(panicsafe.AsError(p))
		}
	}()
	if err := faultinject.Fire(faultinject.EngineJob); err != nil {
		g.fail(err)
		return
	}
	g.work()
}

// work is one worker's share of a graph solve: claim ready-queue slots in
// order until the queue is exhausted, running each task and publishing the
// successors it completes.
//
//stsk:noalloc
func (g *graphRun) work() {
	nt := int32(g.dag.NumTasks())
	for {
		h := g.head.Add(1) - 1
		if h >= nt {
			return
		}
		t := g.await(h)
		g.runTask(t)
		g.complete(t)
	}
}

// runTask is the per-task containment boundary: a kernel panic becomes a
// recorded failure and the task still counts as complete, so successor
// counters always reach zero and no worker parks forever in await.
func (g *graphRun) runTask(t int32) {
	defer func() {
		if p := recover(); p != nil {
			g.fail(panicsafe.AsError(p))
		}
	}()
	lo, hi := g.dag.TaskRows(int(t))
	if g.fac != nil {
		g.fac.rows(lo, hi)
		return
	}
	sweepRows(g.pk, g.x, g.b, g.kw, lo, hi, g.reverse)
}

// await returns the task published to slot h, spinning briefly and then
// parking until a completion publishes it.
//
//stsk:noalloc
func (g *graphRun) await(h int32) int32 {
	for spin := 0; spin < 128; spin++ {
		if v := g.slots[h].Load(); v != 0 {
			return v - 1
		}
		runtime.Gosched()
	}
	g.sleepers.Add(1)
	g.mu.Lock()
	for g.slots[h].Load() == 0 {
		g.cond.Wait()
	}
	g.mu.Unlock()
	g.sleepers.Add(-1)
	return g.slots[h].Load() - 1
}

// complete publishes every task made ready by finishing t. The atomic
// decrement chain orders the finished task's x writes before the
// successor's execution on whichever worker picks it up.
//
//stsk:noalloc
func (g *graphRun) complete(t int32) {
	var notify []int32
	if g.reverse {
		notify = g.dag.Preds(int(t))
	} else {
		notify = g.dag.Succs(int(t))
	}
	published := false
	for _, u := range notify {
		if g.remaining[u].Add(-1) == 0 {
			slot := g.tail.Add(1) - 1
			g.slots[slot].Store(u + 1)
			published = true
		}
	}
	// A parked consumer either sees the slot store after taking the lock
	// (the store is sequenced before this load of sleepers, and its
	// sleepers increment before its slot check) or is woken here.
	if published && g.sleepers.Load() > 0 {
		g.mu.Lock()
		g.cond.Broadcast()
		g.mu.Unlock()
	}
}
