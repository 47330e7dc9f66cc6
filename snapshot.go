package stsk

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"slices"

	"stsk/internal/csrk"
	"stsk/internal/order"
	"stsk/internal/snapshot"
	"stsk/internal/solve"
	"stsk/internal/sparse"
)

// ErrBadSnapshot reports a plan snapshot that cannot be loaded: a
// corrupted or truncated file, an incompatible format version, or a
// decoded image whose arrays fail the plan invariants (non-triangular
// factor, dependent rows inside one pack, non-bijective permutation).
// Loaders match it with errors.Is and fall back to a cold Build — a bad
// snapshot is never worse than having no snapshot.
var ErrBadSnapshot = fmt.Errorf("stsk: bad plan snapshot")

// SnapshotExtra is opaque embedder data carried inside a plan snapshot
// under the same checksum as the plan itself. The serve registry stores
// its plan spec and registry-level value version in Meta and the latest
// input-order value array in AuxVals; the core library never interprets
// either field.
type SnapshotExtra struct {
	Meta    []byte
	AuxVals []float64
}

// WriteSnapshot serializes the plan — permutation, super-row packs and
// the current value epoch — to w in the versioned, checksummed format of
// internal/snapshot. A plan reloaded from the stream with ReadSnapshot
// solves bitwise identically to this one and accepts Refactor for the
// same input pattern, which it derives from the factor as this plan does.
//
// Derived plans (IC0 factors) are refused with ErrSparsityMismatch: a
// reload would take the factor for a source matrix's and accept Refactor
// on it — re-derive them from their reloaded base plan instead.
//
// The serialized value epoch and version are taken from one atomic
// epoch load, so a snapshot written concurrently with Refactor calls is
// always internally consistent (some complete epoch, never a mix).
func (p *Plan) WriteSnapshot(w io.Writer, extra SnapshotExtra) error {
	img, err := p.snapshotImage(extra)
	if err != nil {
		return err
	}
	return snapshot.Write(w, img)
}

// WriteSnapshotFile is WriteSnapshot to a file, written atomically
// (temp file + rename in the destination directory) so concurrent
// readers never observe a partial snapshot.
func (p *Plan) WriteSnapshotFile(path string, extra SnapshotExtra) error {
	img, err := p.snapshotImage(extra)
	if err != nil {
		return err
	}
	return snapshot.WriteFile(path, img)
}

// snapshotImage assembles the serialization image of the plan's current
// state. The value epoch and its version come from one atomic epoch
// load, so the image is internally consistent under concurrent Refactor.
func (p *Plan) snapshotImage(extra SnapshotExtra) (*snapshot.Image, error) {
	if p.derived {
		return nil, fmt.Errorf("%w: plan derives its values (IC0 factor); snapshot the base plan and re-derive after reload", ErrSparsityMismatch)
	}
	s, seq := p.vals.Snapshot()
	return &snapshot.Image{
		Method:       int32(p.method),
		N:            s.L.N,
		ValueVersion: seq,
		Perm:         p.perm,
		RowPtr:       s.L.RowPtr,
		Col:          s.L.Col,
		Val:          s.L.Val,
		SuperPtr:     s.SuperPtr,
		PackPtr:      s.PackPtr,
		Meta:         extra.Meta,
		AuxVals:      extra.AuxVals,
	}, nil
}

// ReadSnapshot reconstructs a Plan from a snapshot stream. The decoded
// image is re-validated end to end — CRC and framing by the codec,
// triangularity, diagonals, pack independence and permutation
// bijectivity here — before any Plan is built, so a corrupted,
// truncated, or version-skewed snapshot returns an error matching
// ErrBadSnapshot and never a panic or a silently wrong plan.
//
// The reloaded plan resumes the serialized value-epoch version (its
// ValuesVersion continues where the writer's left off) and solves
// bitwise identically to the plan that wrote the snapshot. The snapshot
// carries neither a task DAG nor the source pattern: like a built plan,
// a reloaded one derives the DAG from its validated pattern and
// boundaries on its first multi-worker Solver, and the source pattern's
// entry order from its factor and permutation on its first Refactor.
func ReadSnapshot(r io.Reader) (*Plan, SnapshotExtra, error) {
	img, err := snapshot.Read(r)
	if err != nil {
		return nil, SnapshotExtra{}, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	p, err := planFromImage(img)
	if err != nil {
		return nil, SnapshotExtra{}, err
	}
	return p, SnapshotExtra{Meta: img.Meta, AuxVals: img.AuxVals}, nil
}

// ReadSnapshotFile is ReadSnapshot over a file path, on the codec's
// bulk-read fast path: the whole file is read in one syscall and
// decoded in place, skipping the incremental stream buffering — on
// multi-plan warm starts this roughly halves reload time. File-system
// errors (notably fs.ErrNotExist) pass through unwrapped so callers
// can distinguish "no snapshot" from "bad snapshot".
func ReadSnapshotFile(path string) (*Plan, SnapshotExtra, error) {
	img, err := snapshot.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, SnapshotExtra{}, err
		}
		return nil, SnapshotExtra{}, fmt.Errorf("%s: %w: %w", path, ErrBadSnapshot, err)
	}
	p, err := planFromImage(img)
	if err != nil {
		return nil, SnapshotExtra{}, fmt.Errorf("%s: %w", path, err)
	}
	return p, SnapshotExtra{Meta: img.Meta, AuxVals: img.AuxVals}, nil
}

// planFromImage validates a decoded snapshot image semantically and
// assembles the Plan. Every invariant the build pipeline guarantees is
// re-checked here, because the image came from disk, not from order.Build.
func planFromImage(img *snapshot.Image) (*Plan, error) {
	bad := func(format string, a ...any) (*Plan, error) {
		return nil, fmt.Errorf("%w: %s", ErrBadSnapshot, fmt.Sprintf(format, a...))
	}
	method := order.Method(img.Method)
	if !slices.Contains(order.Methods(), method) {
		return bad("unknown method %d", img.Method)
	}
	n := img.N
	if n < 1 {
		return bad("dimension %d", n)
	}
	l := &sparse.CSR{N: n, RowPtr: img.RowPtr, Col: img.Col, Val: img.Val}
	if err := checkFactorSize(l); err != nil {
		return nil, err
	}
	s, err := csrk.Build(l, img.SuperPtr, img.PackPtr)
	if err != nil {
		return bad("factor fails validation: %v", err)
	}
	if len(img.Perm) != n {
		return bad("permutation length %d for dimension %d", len(img.Perm), n)
	}
	if err := sparse.CheckPermutation(img.Perm); err != nil {
		return bad("%v", err)
	}
	// The plan resumes the serialized value-epoch sequence number.
	return &Plan{method: method, perm: img.Perm, vals: solve.NewValuesVersion(s, img.ValueVersion)}, nil
}
