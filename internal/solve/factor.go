package solve

import (
	"sync"
	"sync/atomic"

	"stsk/internal/faultinject"
	"stsk/internal/ichol"
	"stsk/internal/panicsafe"
	"stsk/internal/sparse"
)

// DeriveIC0 computes the zero-fill incomplete Cholesky factor of the
// symmetric matrix whose lower triangle is the live epoch's factor, and
// returns it as a new value sequence over this one's pattern, starting at
// epoch 0. The new sequence shares everything symbolic — the RowPtr/Col
// arrays, the super-row and pack boundaries, the packed shape, the task
// DAG, A′'s index arrays — and its epoch is published with its packed
// lower layout already built. The two sequences' later swaps are
// independent. The factor must fit the packed layout's 32-bit indices,
// as NewEngine requires and every stsk plan's does.
//
// The factorisation is a call on the helper set like a solve: the caller
// and up to workers−1 idle helpers claim tasks of the pattern's task DAG
// as their predecessors finish. A factor row reads exactly the rows
// forward substitution's row reads, so the forward schedule orders it.
// Each task copies its rows of the live values, shifts their diagonals,
// factors them in order with ichol.Row, and writes each finished row
// into both the factor's values and its packed lower layout, checking
// every value finite as it is written. Each row runs ichol.Factor's
// arithmetic on the same inputs, so the factor is bitwise ichol.Factor's
// at any worker count. One worker, or one super-row, factors inline on
// the caller and builds no DAG.
//
// opts follows ichol.Factor: a pivot that comes out non-positive or NaN
// is an *ichol.Breakdown, which AutoBoost retries at a larger shift
// (ichol.Boost). A value that comes out NaN or infinite after a positive
// pivot — a boosted diagonal overflowing to +Inf, which a larger shift
// cannot bring back — is refused at once with ErrNonFinite. Either
// failure names the lowest row that fails, whatever the schedule: no row
// below the lowest failure recorded so far is ever skipped. A contained
// panic returns as ErrInternal and an injected engine.job fault as
// itself, as in a solve. A refusal publishes nothing.
func (v *Values) DeriveIC0(opts ichol.Options, workers int) (*Values, error) {
	cur := v.Current()
	a := cur.s.L
	r := &factorRun{
		a:  a,
		f:  &sparse.CSR{N: a.N, RowPtr: a.RowPtr, Col: a.Col, Val: make([]float64, len(a.Val))},
		pk: cur.shape().NewLower(),
	}
	attempt := r.inline
	if workers > 1 && cur.s.NumSuperRows() > 1 {
		g := newGraphRun(v.pat.taskDAG(cur.s))
		g.fac = r
		helpers.grow(workers)
		attempt = func() error {
			g.arm()
			if err := cooperate(nil, job{graph: g, done: &g.completion}, workers-1); err != nil {
				return err
			}
			return r.err
		}
	}
	err := ichol.Boost(a, opts, func(shift float64) error {
		r.shift, r.err = shift, nil
		r.low.Store(int64(a.N))
		return attempt()
	})
	if err != nil {
		return nil, err
	}
	ep := &epoch{s: withValues(cur.s, r.f.Val), pat: v.pat}
	ep.packOnce.Do(func() { ep.pk = r.pk })
	d := &Values{pat: v.pat}
	d.cur.Store(ep)
	return d, nil
}

// factorRun is the shared state of one IC(0) factorisation attempt: the
// matrix, the factor and its packed lower layout being written, the
// attempt's shift, and its lowest failing row.
type factorRun struct {
	a     *sparse.CSR    // tril(A′): the base epoch's factor, read only
	f     *sparse.CSR    // the factor, on a's pattern
	pk    *sparse.Packed // the factor's packed lower layout
	shift float64

	low atomic.Int64 // lowest row that failed so far; a.N when none has
	mu  sync.Mutex   // serialises failures
	err error        // the failure of row low
}

// rows factors rows [lo, hi) in order: it copies their values of tril(A′),
// then shifts, factors and writes out one row at a time. Every row its
// rows read lies in an earlier task (the DAG orders it first) or earlier
// in this range. It stops at the first row that fails, or that is not
// below the lowest failure recorded so far: the attempt fails whatever
// such a row would hold.
func (r *factorRun) rows(lo, hi int) {
	f, pk := r.f, r.pk
	copy(f.Val[f.RowPtr[lo]:f.RowPtr[hi]], r.a.Val[f.RowPtr[lo]:f.RowPtr[hi]])
	for i := lo; i < hi; i++ {
		if int64(i) >= r.low.Load() {
			return
		}
		first, diag := f.RowPtr[i], f.RowPtr[i+1]-1
		if r.shift != 0 {
			f.Val[diag] += r.shift
		}
		if err := ichol.Row(f, i); err != nil {
			r.failAt(i, err)
			return
		}
		// A positive pivot leaves every off-diagonal of the row finite: a
		// NaN or infinite one makes Σ L[i,k]² NaN or +Inf, and the pivot
		// NaN or −Inf. Its square root is never 0 either, so the diagonal
		// is left to check: +Inf where a boosted diagonal overflowed.
		copy(pk.Val[pk.RowPtr[i]:pk.RowPtr[i+1]], f.Val[first:diag])
		x := f.Val[diag]
		if x-x != 0 {
			r.failAt(i, nonFinite(x, diag))
			return
		}
		pk.Diag[i] = x
	}
}

// failAt records row i's failure if no lower row has failed.
func (r *factorRun) failAt(i int, err error) {
	r.mu.Lock()
	if int64(i) < r.low.Load() {
		r.low.Store(int64(i))
		r.err = err
	}
	r.mu.Unlock()
}

// inline is the attempt of a one-worker factorisation: every row on the
// caller, with a solve's inline containment (localSweep).
func (r *factorRun) inline() (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = panicsafe.AsError(p)
		}
	}()
	if err := faultinject.Fire(faultinject.EngineJob); err != nil {
		return err
	}
	r.rows(0, r.f.N)
	return r.err
}
