// Package solve provides the triangular-solution kernels of the STS-k
// reproduction and the one executor that runs them.
//
// Engine is that executor over a csrk.Structure: every solve is a
// row-major panel of k right-hand sides (k = 1 is one vector), swept by
// the calling goroutine plus whichever of one process-wide set of parked
// helpers are idle — engines own no goroutines. A call that forms a
// single panel is swept cooperatively over the plan's csrk.TaskDAG —
// point-to-point, no barriers; a call that carves into several panels is
// swept panel by panel, each panel whole by one of its goroutines. Its
// entry points all take a context: SolveIntoCtx, SolveUpperIntoCtx,
// SolveBlockIntoCtx and SolveUpperBlockIntoCtx.
//
// Beside it sit two references. Sequential is the single-core oracle
// every parallel path must equal bit for bit. Barrier is the paper's
// Algorithm 1 — packs one after another, a barrier between packs, the
// super-rows of a pack handed out under the OpenMP-style static,
// dynamic(chunk) or guided(chunk) schedules standing in for
// `#pragma omp parallel for schedule(runtime, chunk)` — kept as the
// wall-clock baseline. DefaultsFor reproduces the paper's pairing of
// schedule and method (§4.1).
package solve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"stsk/internal/csrk"
)

// Sequential solves S.L x = b by rows in order and returns x. It is the
// single-core baseline T(mat, method, 1) of the evaluation.
func Sequential(s *csrk.Structure, b []float64) ([]float64, error) {
	l := s.L
	if len(b) != l.N {
		return nil, fmt.Errorf("%w: rhs length %d, want %d", ErrDimension, len(b), l.N)
	}
	x := make([]float64, l.N)
	solveRows(l.RowPtr, l.Col, l.Val, x, b, 0, l.N)
	return x, nil
}

// solveRows performs forward substitution for rows [lo, hi). Each row's
// diagonal entry is last (guaranteed by csrk.Structure.Validate).
//
//stsk:noalloc
func solveRows(rowPtr, col []int, val, x, b []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		s := 0.0
		end := rowPtr[i+1] - 1
		for k := rowPtr[i]; k < end; k++ {
			s += val[k] * x[col[k]]
		}
		x[i] = (b[i] - s) / val[end]
	}
}

// Schedule selects how the Barrier reference runner hands the super-rows
// of a pack to its workers.
type Schedule int

const (
	// Static splits each pack into equal contiguous blocks, one per worker.
	Static Schedule = iota
	// Dynamic hands out fixed chunks of super-rows first-come-first-served.
	Dynamic
	// Guided hands out shrinking chunks (remaining / workers, floored at
	// the chunk size), the OpenMP guided policy.
	Guided
)

func (s Schedule) String() string {
	switch s {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	}
	return fmt.Sprintf("Schedule(%d)", int(s))
}

// BarrierOptions configures the Barrier reference runner.
type BarrierOptions struct {
	// Workers is the number of goroutines started per call; defaults to
	// GOMAXPROCS.
	Workers int
	// Schedule is the loop schedule over each pack's super-rows.
	Schedule Schedule
	// Chunk is the schedule granularity in super-rows; defaults to 1.
	Chunk int
}

// DefaultsFor returns the paper's schedule pairing: dynamic,32 for the
// row-level schemes and guided,1 for the k-level schemes (§4.1).
func DefaultsFor(usesSuperRows bool, workers int) BarrierOptions {
	if usesSuperRows {
		return BarrierOptions{Workers: workers, Schedule: Guided, Chunk: 1}
	}
	return BarrierOptions{Workers: workers, Schedule: Dynamic, Chunk: 32}
}

// Barrier solves S.L x = b into x with the pack-parallel scheme of the
// paper's Algorithm 1: packs run one after another with a barrier between
// them, the super-rows of a pack are distributed over workers by the
// configured schedule, and rows inside a super-row are solved in order by
// one worker. Each call starts fresh goroutines and sweeps the CSR kernel
// of Sequential, so it costs what a one-shot OpenMP region costs and its
// result is bitwise identical to Sequential. It is the reference the
// Engine is measured against, not a serving path.
func Barrier(x []float64, s *csrk.Structure, b []float64, opts BarrierOptions) error {
	l := s.L
	if len(b) != l.N || len(x) != l.N {
		return fmt.Errorf("%w: vector lengths %d/%d, want %d", ErrDimension, len(x), len(b), l.N)
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Chunk <= 0 {
		opts.Chunk = 1
	}
	if opts.Workers == 1 || s.NumSuperRows() == 1 {
		solveRows(l.RowPtr, l.Col, l.Val, x, b, 0, l.N)
		return nil
	}
	r := &barrierRun{s: s, x: x, b: b, opts: opts, next: make([]atomic.Int64, s.NumPacks())}
	r.cond = sync.NewCond(&r.mu)
	for p := range r.next {
		lo, _ := s.PackSuperRows(p)
		r.next[p].Store(int64(lo))
	}
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		// A reference fan-out bounded by the call: a kernel panic on a
		// validated structure is a bug that must surface, not be contained.
		//stsk:allow-bare-go
		go func(id int) {
			defer wg.Done()
			r.work(id)
		}(w)
	}
	wg.Wait()
	return nil
}

// barrierRun is the shared state of one Barrier call: per-pack claim
// counters and a cyclic barrier every worker meets after each pack.
type barrierRun struct {
	s    *csrk.Structure
	x, b []float64
	opts BarrierOptions
	next []atomic.Int64 // per pack: next unclaimed super-row

	mu      sync.Mutex
	cond    *sync.Cond
	arrived int
	gen     int
}

// work is one worker's share: every pack in order, its super-rows claimed
// under the schedule, a barrier after each pack.
func (r *barrierRun) work(id int) {
	s, workers := r.s, r.opts.Workers
	for p := 0; p < s.NumPacks(); p++ {
		lo, hi := s.PackSuperRows(p)
		if r.opts.Schedule == Static {
			per := (hi - lo + workers - 1) / workers
			r.solveSupers(min(lo+id*per, hi), min(lo+(id+1)*per, hi))
		} else {
			for {
				from, to, ok := r.claim(p, hi)
				if !ok {
					break
				}
				r.solveSupers(from, to)
			}
		}
		r.wait()
	}
}

// claim takes the next chunk of pack p: Chunk super-rows under Dynamic,
// remaining/Workers (at least Chunk) under Guided.
func (r *barrierRun) claim(p, hi int) (from, to int, ok bool) {
	for {
		cur := int(r.next[p].Load())
		if cur >= hi {
			return 0, 0, false
		}
		take := r.opts.Chunk
		if r.opts.Schedule == Guided {
			take = max(take, (hi-cur)/r.opts.Workers)
		}
		take = min(take, hi-cur)
		if r.next[p].CompareAndSwap(int64(cur), int64(cur+take)) {
			return cur, cur + take, true
		}
	}
}

// solveSupers solves super-rows [from, to) — contiguous rows — in order.
func (r *barrierRun) solveSupers(from, to int) {
	l := r.s.L
	solveRows(l.RowPtr, l.Col, l.Val, r.x, r.b, r.s.SuperPtr[from], r.s.SuperPtr[to])
}

// wait blocks until every worker has finished the current pack; the
// mutex also publishes each pack's x writes to the next.
func (r *barrierRun) wait() {
	r.mu.Lock()
	gen := r.gen
	r.arrived++
	if r.arrived == r.opts.Workers {
		r.arrived = 0
		r.gen++
		r.cond.Broadcast()
	} else {
		for gen == r.gen {
			r.cond.Wait()
		}
	}
	r.mu.Unlock()
}
