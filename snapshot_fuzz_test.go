package stsk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"stsk/internal/snapshot"
	"stsk/internal/sparse"
)

// snapshotHeaderSize is the fixed header in front of a snapshot payload:
// magic, format version, payload length and CRC-32C (see
// internal/snapshot).
const snapshotHeaderSize = 32

// frameSnapshot wraps a payload in a valid header — magic,
// FormatVersion, length and CRC-32C — so a mutated payload is decoded
// and validated instead of dying at the checksum.
func frameSnapshot(payload []byte) []byte {
	out := make([]byte, snapshotHeaderSize, snapshotHeaderSize+len(payload))
	copy(out, "STSKSNAP")
	binary.LittleEndian.PutUint32(out[8:], snapshot.FormatVersion)
	binary.LittleEndian.PutUint64(out[16:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(out[24:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(out, payload...)
}

// FuzzReadSnapshot feeds ReadSnapshot re-framed mutations of real
// snapshot payloads. ReadSnapshot must never panic and must refuse with
// ErrBadSnapshot, ErrTooLarge or ErrNonFinite. An accepted plan must
// solve forward and backward on two workers — over the task DAG it
// derives from the validated pattern and boundaries, since a snapshot
// carries none — bitwise like the sequential oracles, and its IC(0)
// factor, which trusts the snapshot's validation for its pattern and
// packed shape, must either be refused or solve bitwise like its own
// oracle, never panic. The plan's Refactor, whose source entry order it
// derives from the snapshot's factor and permutation, must map the
// factor's own values back onto it.
func FuzzReadSnapshot(f *testing.F) {
	mat, err := Generate("grid2d", 36)
	if err != nil {
		f.Fatal(err)
	}
	seed := func(p *Plan, extra SnapshotExtra) {
		var buf bytes.Buffer
		if err := p.WriteSnapshot(&buf, extra); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes()[snapshotHeaderSize:])
	}
	for _, method := range Methods() {
		p, err := Build(mat, method, WithRowsPerSuper(3))
		if err != nil {
			f.Fatal(err)
		}
		seed(p, SnapshotExtra{})
		if method == STS3 {
			if err := p.Refactor(perturbValues(mat.Values(), 2)); err != nil {
				f.Fatal(err)
			}
			seed(p, SnapshotExtra{})
			seed(p, SnapshotExtra{Meta: []byte(`{"name":"g"}`), AuxVals: mat.Values()})
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		p, _, err := ReadSnapshot(bytes.NewReader(frameSnapshot(payload)))
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) && !errors.Is(err, ErrTooLarge) && !errors.Is(err, ErrNonFinite) {
				t.Fatalf("refusal matches no sentinel: %v", err)
			}
			return
		}
		s := p.NewSolver(WithWorkers(2))
		defer s.Close()
		b := manufacturedB(p, 1)
		want, err := p.SolveSequential(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		assertVecBitwise(t, "solve", got, want)
		// Validation refuses zero diagonals, so the backward sweep has no
		// refusal left to make.
		wantU, err := sparse.BackwardSubstitution(p.structure().L.Transpose(), b)
		if err != nil {
			t.Fatal(err)
		}
		gotU, err := s.SolveUpper(b)
		if err != nil {
			t.Fatal(err)
		}
		assertVecBitwise(t, "backward solve", gotU, wantU)
		// The source entry order the plan derives from its factor reaches
		// every factor slot once: the factor's values read out through it
		// refactor the plan onto the same factor.
		l := p.structure().L
		sh, err := p.vals.Shape()
		if err != nil {
			t.Fatal(err)
		}
		slots := sourceSlots(l, sh, p.perm)
		vals := make([]float64, len(slots))
		for k, s := range slots {
			if s >= 0 {
				vals[k] = l.Val[s]
			}
		}
		if err := p.Refactor(vals); err != nil {
			t.Fatal(err)
		}
		assertVecBitwise(t, "refactored factor", p.structure().L.Val, l.Val)
		ic, err := p.IC0()
		if err != nil {
			return
		}
		want, err = ic.SolveSequential(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err = ic.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		assertVecBitwise(t, "ic0 solve", got, want)
	})
}
