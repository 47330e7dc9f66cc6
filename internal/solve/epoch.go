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
// super-row boundaries, the RowPtr/Col index arrays, the task DAG — is
// built once and shared by every epoch; a numeric refactorization
// (Values.Swap) publishes a new epoch carrying only fresh value arrays.
//
// The hot path takes no locks: every solve dispatch loads the current
// epoch pointer exactly once and threads it through the sweep, so a solve
// already in flight finishes on the snapshot it started with while later
// dispatches see the new values. One Values is shared by all engines of a
// plan, so per-epoch derived state (the packed layouts of the factor and
// of its transpose) is built at most once per epoch no matter how many
// engines solve it.
type Values struct {
	cur atomic.Pointer[epoch]
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
	v := &Values{}
	v.cur.Store(&epoch{seq: seq, s: s})
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
	l := old.s.L
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
	l2 := &sparse.CSR{N: l.N, RowPtr: l.RowPtr, Col: l.Col, Val: val}
	s2 := &csrk.Structure{L: l2, SuperPtr: old.s.SuperPtr, PackPtr: old.s.PackPtr}
	v.cur.Store(&epoch{seq: old.seq + 1, s: s2})
	return nil
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

// epoch is one immutable numeric snapshot of the factor: the structure
// (shared symbolic arrays + this epoch's values) and the packed layouts
// the kernels sweep, each built at most once. A call builds them before
// it is offered to the helpers, and the hand-off (a channel send)
// publishes them to every helper that joins.
type epoch struct {
	seq uint64
	s   *csrk.Structure

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
		pk, ok := sparse.PackLower(ep.s.L)
		if !ok {
			panic("solve: factor cannot be packed")
		}
		ep.pk = pk
	})
	return ep.pk
}

// packedUpper returns the epoch's packed transpose L′ᵀ for backward
// sweeps, building and validating it on first use. The CSR transpose is
// only a stepping stone and is not kept.
func (ep *epoch) packedUpper() (*sparse.Packed, error) {
	ep.upperOnce.Do(func() {
		u := ep.s.L.Transpose()
		for i := 0; i < u.N; i++ {
			lo, hi := u.RowPtr[i], u.RowPtr[i+1]
			if lo == hi || u.Col[lo] != i {
				ep.upperErr = fmt.Errorf("solve: transposed row %d lacks a leading diagonal", i)
				return
			}
			if u.Val[lo] == 0 {
				ep.upperErr = fmt.Errorf("solve: zero diagonal at transposed row %d", i)
				return
			}
		}
		ep.upk, _ = sparse.PackUpper(u) // leading diagonals checked above
	})
	return ep.upk, ep.upperErr
}
