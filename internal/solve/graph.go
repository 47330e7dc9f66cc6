package solve

import (
	"runtime"
	"sync"
	"sync/atomic"

	"stsk/internal/csrk"
	"stsk/internal/faultinject"
	"stsk/internal/panicsafe"
)

// graphRun is the shared state of one call on the helper set, and the
// only kind of run there is: the point-to-point replacement for the
// paper's barrier schedule (Barrier). Instead of all workers meeting at a
// barrier after every pack, each task (a contiguous super-row chunk of
// one pack, csrk.TaskDAG) carries an atomic counter of unfinished direct
// predecessors. A worker finishing a task decrements its successors'
// counters and publishes any task that hits zero to a wait-free ready
// queue, then immediately claims the next ready task — so independent
// subtrees of the dependency DAG flow through the workers without ever
// synchronising with each other.
//
// The ready queue is an array of one slot per task: publishers claim a
// slot with an atomic tail counter and store task+1 into it; consumers
// claim slots in order with an atomic head counter and wait for their
// slot's store. Every task is published exactly once (its counter reaches
// zero exactly once; roots are published at arm), so a consumer holding
// slot h < NumTasks always gets a task eventually, and consumers beyond
// NumTasks exit. Claiming is wait-free; waiting spins briefly and then
// parks on a condition variable so an over-subscribed machine is not
// burned by busy polling.
//
// Each call kind embeds a graphRun and is its own task body (taskBody):
// rows of a packed sweep across a panel (sweepRun), whole panels of a
// block call (panelRun), row chunks of A′ (spmvRun) and IC(0) rows
// (factorRun). Sweeps and factorisations run over the plan's task DAG. A
// product's chunks and a block call's panels are independent: a DAG with
// no edges (independent), whose every task is a root, so the ready queue
// hands them out in order as an atomic cursor would. A call one goroutine
// sweeps — one worker, or one super-row — runs over one task (oneTask).
//
// Each row is computed by exactly one worker with the sequential kernel's
// operation order, so results stay bitwise identical to Sequential. A
// run's arrays grow when a call has more tasks than any before it and are
// reset per call — steady-state calls allocate nothing.
type graphRun struct {
	dag     *csrk.TaskDAG
	body    taskBody // the call kind, bound once when the run is made
	reverse bool     // run the DAG backward: a task waits on its successors

	remaining []atomic.Int32 // per task: unfinished direct deps (succs when reverse)
	slots     []atomic.Int32 // ready queue; a slot holds task id + 1
	head      atomic.Int32   // next slot to consume
	tail      atomic.Int32   // next slot to publish

	mu       sync.Mutex
	cond     sync.Cond
	sleepers atomic.Int32 // consumers parked (or about to park) on cond

	// The helpers still sweeping and the first failure of the call. A
	// failed task still completes (runTask recovers, work always calls
	// complete), so successors are never stranded — the call finishes
	// and reports.
	wg    sync.WaitGroup
	errMu sync.Mutex
	err   error
}

// taskBody is what a call kind does with one task: the range [lo, hi)
// its run's DAG gives the task — rows, or a block call's columns.
type taskBody interface{ rows(lo, hi int) }

// bind makes g a run of body's tasks over dag. Each run is bound once,
// when its pool makes it, so no call converts a body to the interface.
func (g *graphRun) bind(dag *csrk.TaskDAG, body taskBody) {
	g.dag, g.body = dag, body
	g.cond.L = &g.mu
}

// independent lays d out as a DAG with no edges whose task t is the
// range [bounds[t], bounds[t+1]) — rows of a product or of a one-task
// call, columns of a block call — reusing d's pointer array when it is
// long enough. Its TaskPtr is bounds too: only its length, the task
// count, is read.
func independent(d *csrk.TaskDAG, bounds []int32) {
	if cap(d.PredPtr) < len(bounds) {
		d.PredPtr = make([]int32, len(bounds))
	}
	d.TaskPtr, d.RowPtr = bounds, bounds
	d.PredPtr = d.PredPtr[:len(bounds)]
	d.SuccPtr = d.PredPtr
}

// oneTask is the DAG of one task over rows [0, n): a call its caller
// sweeps alone, which no helper could share.
func oneTask(n int) *csrk.TaskDAG {
	d := new(csrk.TaskDAG)
	independent(d, []int32{0, int32(n)})
	return d
}

// arm readies the ready queue and the dependency counters for one call,
// in the run's direction: every root of the DAG (or, in reverse, every
// sink) published, every other task waiting on its count. cooperate
// calls it before the run is offered to any helper, so plain stores
// suffice.
func (g *graphRun) arm() {
	nt := g.dag.NumTasks()
	if len(g.slots) < nt {
		g.remaining = make([]atomic.Int32, nt)
		g.slots = make([]atomic.Int32, nt)
	}
	g.head.Store(0)
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

// fail records the first failure of the call.
func (g *graphRun) fail(err error) {
	g.errMu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.errMu.Unlock()
}

// runShare is every participant's entry into a call — the caller's and
// each joined helper's — and its outer panic-containment boundary. An
// injected engine.job fault makes this participant bow out before
// claiming anything — any subset of participants drains the ready queue,
// so its mates finish the call alone and the run reports the failure.
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

// work is one worker's share of a call: claim ready-queue slots in order
// until the queue is exhausted, running each task and publishing the
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

// runTask is the per-task containment boundary: a panic in the body
// becomes a recorded failure and the task still counts as complete, so
// successor counters always reach zero and no worker parks forever in
// await.
func (g *graphRun) runTask(t int32) {
	defer func() {
		if p := recover(); p != nil {
			g.fail(panicsafe.AsError(p))
		}
	}()
	g.body.rows(g.dag.TaskRows(int(t)))
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
// decrement chain orders the finished task's writes before the
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
