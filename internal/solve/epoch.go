package solve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"stsk/internal/csrk"
	"stsk/internal/faultinject"
	"stsk/internal/sparse"
)

// Values owns the numeric side of one plan's factor as a sequence of
// immutable copy-on-write epochs. The symbolic side — pack partition,
// super-row boundaries, the RowPtr/Col index arrays, the packed layouts'
// index arrays (one sparse.PackShape, built on the first pin) — is
// shared by every epoch and by every sequence derived from this one
// (Derive); a numeric refactorization (Values.Swap) publishes a new
// epoch carrying only fresh value arrays.
//
// The hot path takes no locks: every solve dispatch loads the current
// epoch pointer exactly once and threads it through the sweep, so a solve
// already in flight finishes on the snapshot it started with while later
// dispatches see the new values. One Values is shared by all engines of a
// plan, so per-epoch derived state (the packed values of the factor and
// of its transpose) is built at most once per epoch no matter how many
// engines solve it.
type Values struct {
	cur   atomic.Pointer[epoch]
	shape *shapeCell // shared by every epoch and every derived sequence
}

// NewValues wraps a structure as epoch 0 of a value sequence.
func NewValues(s *csrk.Structure) *Values {
	return NewValuesVersion(s, 0)
}

// NewValuesVersion wraps a structure as epoch seq of a value sequence —
// the snapshot-reload path, where a deserialized plan must resume the
// epoch numbering the serialized plan had reached so version reporting
// stays monotone across a warm restart.
func NewValuesVersion(s *csrk.Structure, seq uint64) *Values {
	v := &Values{shape: new(shapeCell)}
	v.cur.Store(&epoch{seq: seq, s: s, shape: v.shape})
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
	return v.shape.get(v.Current().s.L)
}

// Swap validates val as a complete value array for the factor's fixed
// sparsity and publishes it as a new epoch. The check is all-or-nothing:
// on a length mismatch (wrapped ErrDimension), a NaN or infinite value
// (wrapped ErrNonFinite) or a zero diagonal nothing is published and
// in-flight and future solves keep the old values. The new epoch packs
// lazily, on the first solve that pins it.
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
	v.cur.Store(&epoch{seq: old.seq + 1, s: withValues(old.s, val), shape: v.shape})
	return nil
}

// Derive returns a new value sequence over this one's pattern, starting
// at epoch 0 with val: a factor computed from the current values, such
// as an incomplete-Cholesky factor. It shares everything symbolic — the
// RowPtr/Col arrays, the super-row and pack boundaries, the packed
// shape — and runs Swap's checks on val, publishing nothing on a
// refusal. The two sequences' later swaps are independent.
//
// Derive takes ownership of val, like Swap.
func (v *Values) Derive(val []float64) (*Values, error) {
	cur := v.cur.Load()
	if err := checkValues(cur.s.L, val); err != nil {
		return nil, err
	}
	d := &Values{shape: v.shape}
	d.cur.Store(&epoch{s: withValues(cur.s, val), shape: v.shape})
	return d, nil
}

// checkValues is the value check of Swap and Derive: val must have one
// entry per stored entry of l, all finite, with no zero diagonal.
func checkValues(l *sparse.CSR, val []float64) error {
	if len(val) != len(l.Val) {
		return fmt.Errorf("%w: %d values for a factor with %d stored entries", ErrDimension, len(val), len(l.Val))
	}
	if err := CheckFinite(val); err != nil {
		return err
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
			return fmt.Errorf("%w: %v at stored entry %d", ErrNonFinite, v, k)
		}
	}
	return nil
}

// shapeCell holds the packed shape of one pattern, built once by
// whichever epoch, of whichever sequence sharing the pattern, pins first.
type shapeCell struct {
	once sync.Once
	sh   *sparse.PackShape
	err  error
}

func (c *shapeCell) get(l *sparse.CSR) (*sparse.PackShape, error) {
	c.once.Do(func() { c.sh, c.err = sparse.NewPackShape(l) })
	return c.sh, c.err
}

// epoch is one immutable numeric snapshot of the factor: the structure
// (shared symbolic arrays + this epoch's values) and the packed layouts
// the kernels sweep, whose values are each gathered at most once onto
// the shared shape. A call builds them before it is offered to the
// helpers, and the hand-off (a channel send) publishes them to every
// helper that joins.
type epoch struct {
	seq   uint64
	s     *csrk.Structure
	shape *shapeCell

	packOnce sync.Once
	pk       *sparse.Packed // L′, built on the first pin

	upperOnce sync.Once
	upk       *sparse.Packed // L′ᵀ, built on the first backward sweep
	upperErr  error
}

// packed returns the epoch's packed lower factor, building it on first
// use. Engines refuse structures whose indices overflow 32 bits and
// csrk.Structure guarantees a trailing diagonal per row, so packing
// cannot fail here.
func (ep *epoch) packed() *sparse.Packed {
	ep.packOnce.Do(func() {
		sh, err := ep.shape.get(ep.s.L)
		if err != nil {
			panic("solve: factor cannot be packed: " + err.Error())
		}
		ep.pk = sh.Lower(ep.s.L.Val)
	})
	return ep.pk
}

// packedUpper returns the epoch's packed transpose L′ᵀ for backward
// sweeps, gathering its values on first use and refusing a zero
// diagonal, which the backward sweep would divide by.
func (ep *epoch) packedUpper() (*sparse.Packed, error) {
	ep.upperOnce.Do(func() {
		lo := ep.packed()
		for i, d := range lo.Diag {
			if d == 0 {
				ep.upperErr = fmt.Errorf("solve: zero diagonal at transposed row %d", i)
				return
			}
		}
		sh, _ := ep.shape.get(ep.s.L) // built by packed above
		ep.upk = sh.Upper(ep.s.L.Val, lo.Diag)
	})
	return ep.upk, ep.upperErr
}
