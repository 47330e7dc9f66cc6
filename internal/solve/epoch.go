package solve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"stsk/internal/csrk"
	"stsk/internal/faultinject"
	"stsk/internal/order"
	"stsk/internal/sparse"
)

// Values owns the numeric side of one plan's factor as a sequence of
// immutable copy-on-write epochs, and every layout derived from the
// factor. The symbolic side — pack partition, super-row boundaries, the
// RowPtr/Col index arrays, and what the pattern derives once (the packed
// shape, the task DAG, A′'s index arrays and row chunks) — is shared by
// every epoch and by every sequence derived from this one
// (DeriveIC0); a numeric refactorization (Values.Swap) publishes a new
// epoch carrying only fresh value arrays.
//
// The hot path takes no locks: every solve dispatch loads the current
// epoch pointer exactly once and threads it through the sweep, so a solve
// already in flight finishes on the snapshot it started with while later
// dispatches see the new values. One Values is shared by all engines of a
// plan, so per-epoch derived state (the packed values of the factor, of
// its transpose and of A′) is built at most once per epoch no matter how
// many engines solve it.
type Values struct {
	cur atomic.Pointer[epoch]
	pat *pattern // shared by every epoch and every derived sequence
}

// NewValues wraps a structure as epoch 0 of a value sequence. The
// structure must have passed csrk.Build's checks — in particular no zero
// diagonal, which every sweep divides by: neither NewValues nor the
// sweeps check again, while Swap checks every later value array and an
// IC(0) factor's diagonal is the square root of a positive pivot.
func NewValues(s *csrk.Structure) *Values {
	return NewValuesVersion(s, 0)
}

// NewValuesVersion wraps a structure as epoch seq of a value sequence —
// the snapshot-reload path, where a deserialized plan must resume the
// epoch numbering the serialized plan had reached so version reporting
// stays monotone across a warm restart. The structure must meet
// NewValues' precondition.
func NewValuesVersion(s *csrk.Structure, seq uint64) *Values {
	v := &Values{pat: new(pattern)}
	v.cur.Store(&epoch{seq: seq, s: s, pat: v.pat})
	return v
}

// Current returns the live epoch. Solve dispatchers call this exactly
// once per dispatch and thread the snapshot through the whole sweep.
func (v *Values) Current() *epoch { return v.cur.Load() }

// Structure returns the current epoch's structure: the shared symbolic
// arrays plus the live value array.
func (v *Values) Structure() *csrk.Structure { return v.Current().s }

// Version returns the sequence number of the live epoch, starting at 0
// and incremented by every successful Swap.
func (v *Values) Version() uint64 { return v.Current().seq }

// Snapshot returns the live epoch's structure and sequence number from a
// single epoch load, so a serializer observes one consistent (values,
// version) pair even while concurrent Swap calls land.
func (v *Values) Snapshot() (*csrk.Structure, uint64) {
	ep := v.Current()
	return ep.s, ep.seq
}

// Shape returns the packed shape of the sequence's pattern, building it
// on first use; every epoch and every derived sequence shares it. The
// error is NewPackShape's, for a factor no packed layout can hold.
func (v *Values) Shape() (*sparse.PackShape, error) {
	return v.pat.packShape(v.Current().s.L)
}

// TaskDAG returns the dependency DAG the cooperative sweeps schedule
// over: packs carved into nnz-balanced super-row chunks, direct
// dependencies read off the pattern, transitively sparsified
// (order.BuildTaskDAG with its defaults). It is built on first use, once
// per pattern, and shared by every epoch, every derived sequence and
// every engine over them.
func (v *Values) TaskDAG() *csrk.TaskDAG {
	return v.pat.taskDAG(v.Current().s)
}

// Symmetric returns A′ = L′ + L′ᵀ − D at the live epoch, in the order
// of the factor's rows, and the row chunks its products are swept in.
// A′'s index arrays and chunks are built once per pattern; each epoch
// gathers its own values onto them on its first product. Both are
// read-only.
func (v *Values) Symmetric() (*sparse.CSR32, *SpMV) {
	a := v.Current().symmetric()
	return a, v.pat.rows
}

// Swap validates val as a complete value array for the factor's fixed
// sparsity and publishes it as a new epoch. The check is all-or-nothing:
// on a length mismatch (wrapped ErrDimension) or a zero diagonal nothing
// is published and in-flight and future solves keep the old values. The
// new epoch packs lazily, on the first solve that pins it.
//
// val must hold no NaN or infinity (CheckFinite): Swap does not look
// again at what its caller checked while writing val — Plan.Refactor
// checks each value as it scatters it.
//
// Swap takes ownership of val; the caller must not modify it afterwards.
// Concurrent Swap calls must be serialised by the caller (the stsk facade
// holds a per-plan mutex); solves need no coordination at all.
func (v *Values) Swap(val []float64) error {
	if err := faultinject.Fire(faultinject.EpochSwap); err != nil {
		// An injected epoch.swap fault models a refactorization dying
		// before publication: all-or-nothing, the old epoch stays live.
		return err
	}
	old := v.cur.Load()
	if err := checkValues(old.s.L, val); err != nil {
		return err
	}
	v.cur.Store(&epoch{seq: old.seq + 1, s: withValues(old.s, val), pat: v.pat})
	return nil
}

// checkValues is Swap's value check: val must have one entry per stored
// entry of l, with no zero diagonal.
func checkValues(l *sparse.CSR, val []float64) error {
	if len(val) != len(l.Val) {
		return fmt.Errorf("%w: %d values for a factor with %d stored entries", ErrDimension, len(val), len(l.Val))
	}
	for i := 0; i < l.N; i++ {
		if val[l.RowPtr[i+1]-1] == 0 {
			return fmt.Errorf("solve: zero diagonal at row %d", i)
		}
	}
	return nil
}

// withValues returns s over the same pattern and boundaries with val as
// its values.
func withValues(s *csrk.Structure, val []float64) *csrk.Structure {
	l := &sparse.CSR{N: s.L.N, RowPtr: s.L.RowPtr, Col: s.L.Col, Val: val}
	return &csrk.Structure{L: l, SuperPtr: s.SuperPtr, PackPtr: s.PackPtr}
}

// CheckFinite refuses factor values holding a NaN or an infinity,
// wrapping ErrNonFinite: a sweep would spread such a value through every
// row that depends on it.
func CheckFinite(val []float64) error {
	for k, v := range val {
		// v−v is 0 for every finite v and NaN for NaN and ±Inf: one
		// subtraction per value where math.IsNaN and math.IsInf take
		// twice as long on a refactor's hot path.
		if v-v != 0 {
			return nonFinite(v, k)
		}
	}
	return nil
}

// nonFinite is the refusal of value v at stored entry k.
func nonFinite(v float64, k int) error {
	return fmt.Errorf("%w: %v at stored entry %d", ErrNonFinite, v, k)
}

// pattern holds what one factor pattern derives once, each part built by
// whichever epoch, of whichever sequence sharing the pattern, needs it
// first. It reads the pattern and boundaries of the structure it is
// handed and keeps none of them, so it pins no epoch's values.
type pattern struct {
	shapeOnce sync.Once
	shape     *sparse.PackShape
	shapeErr  error

	dagOnce sync.Once
	dag     *csrk.TaskDAG

	symOnce sync.Once
	sym     *sparse.CSR32 // A′'s RowPtr and Col; no values
	rows    *SpMV         // A′'s row chunks
}

func (c *pattern) packShape(l *sparse.CSR) (*sparse.PackShape, error) {
	c.shapeOnce.Do(func() { c.shape, c.shapeErr = sparse.NewPackShape(l) })
	return c.shape, c.shapeErr
}

func (c *pattern) taskDAG(s *csrk.Structure) *csrk.TaskDAG {
	c.dagOnce.Do(func() { c.dag = order.BuildTaskDAG(s, order.TaskDAGOptions{}) })
	return c.dag
}

// epoch is one immutable numeric snapshot of the factor: the structure
// (shared symbolic arrays + this epoch's values) and the layouts its
// values are gathered into, each at most once onto the pattern's index
// arrays. A call builds the layouts it sweeps before it is offered to
// the helpers, and the hand-off (a channel send) publishes them to every
// helper that joins.
type epoch struct {
	seq uint64
	s   *csrk.Structure
	pat *pattern

	packOnce sync.Once
	pk       *sparse.Packed // L′, built on the first pin or, for an IC(0) factor, by DeriveIC0

	upperOnce sync.Once
	upk       *sparse.Packed // L′ᵀ, built on the first backward sweep

	symOnce sync.Once
	sym     *sparse.CSR32 // A′, built on the first product
}

// shape returns the pattern's packed shape. Engines refuse structures
// whose indices overflow 32 bits and csrk.Structure guarantees a
// trailing diagonal per row, so building it cannot fail here.
func (ep *epoch) shape() *sparse.PackShape {
	sh, err := ep.pat.packShape(ep.s.L)
	if err != nil {
		panic("solve: factor cannot be packed: " + err.Error())
	}
	return sh
}

// packed returns the epoch's packed lower factor, building it on first
// use.
func (ep *epoch) packed() *sparse.Packed {
	ep.packOnce.Do(func() { ep.pk = ep.shape().Lower(ep.s.L.Val) })
	return ep.pk
}

// packedUpper returns the epoch's packed transpose L′ᵀ for backward
// sweeps, gathering its values on first use.
func (ep *epoch) packedUpper() *sparse.Packed {
	ep.upperOnce.Do(func() { ep.upk = ep.shape().Upper(ep.s.L.Val, ep.packed().Diag) })
	return ep.upk
}

// symmetric returns the epoch's A′, gathering its values on first use.
// The first epoch of a pattern to get here assembles A′'s index arrays
// with its values and carves its row chunks; every later one gathers
// values only.
func (ep *epoch) symmetric() *sparse.CSR32 {
	ep.symOnce.Do(func() {
		sh, c := ep.shape(), ep.pat
		c.symOnce.Do(func() {
			ep.sym = sh.Symmetric(ep.s.L, nil)
			c.sym = &sparse.CSR32{N: ep.sym.N, RowPtr: ep.sym.RowPtr, Col: ep.sym.Col}
			c.rows = NewSpMV(c.sym, runtime.GOMAXPROCS(0))
		})
		if ep.sym == nil {
			ep.sym = sh.Symmetric(ep.s.L, c.sym)
		}
	})
	return ep.sym
}
