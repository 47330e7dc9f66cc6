package stsk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"stsk/internal/snapshot"
	"stsk/internal/sparse"
)

// snapshotRHS builds a deterministic right-hand side for bitwise solve
// comparisons.
func snapshotRHS(p *Plan, seed int) []float64 {
	xTrue := make([]float64, p.N())
	for i := range xTrue {
		xTrue[i] = math.Sin(float64(i + seed))
	}
	return p.RHSFor(xTrue)
}

func solveBitwiseEqual(t *testing.T, a, b *Plan, label string) {
	t.Helper()
	rhs := snapshotRHS(a, 11)
	xa, err := a.Solve(rhs)
	if err != nil {
		t.Fatalf("%s: original solve: %v", label, err)
	}
	xb, err := b.Solve(rhs)
	if err != nil {
		t.Fatalf("%s: reloaded solve: %v", label, err)
	}
	for i := range xa {
		if xa[i] != xb[i] {
			t.Fatalf("%s: reloaded solve differs at %d: %v vs %v", label, i, xa[i], xb[i])
		}
	}
	ua, err := a.SolveUpper(rhs)
	if err != nil {
		t.Fatalf("%s: original upper: %v", label, err)
	}
	ub, err := b.SolveUpper(rhs)
	if err != nil {
		t.Fatalf("%s: reloaded upper: %v", label, err)
	}
	for i := range ua {
		if ua[i] != ub[i] {
			t.Fatalf("%s: reloaded upper differs at %d: %v vs %v", label, i, ua[i], ub[i])
		}
	}
}

// TestSnapshotRoundTripCorpus snapshots plans across matrix classes and
// every ordering method and requires the reload to be an exact replica:
// same shape, same version, bitwise-identical solves.
func TestSnapshotRoundTripCorpus(t *testing.T) {
	for _, class := range []string{"grid2d", "grid3d", "rgg", "roadnet"} {
		for _, method := range []Method{CSRLS, CSR3LS, CSRCOL, STS3} {
			label := class + "/" + method.String()
			mat, err := Generate(class, 1500)
			if err != nil {
				t.Fatal(err)
			}
			p, err := Build(mat, method)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			extra := SnapshotExtra{Meta: []byte("m:" + label), AuxVals: nil}
			if err := p.WriteSnapshot(&buf, extra); err != nil {
				t.Fatalf("%s: write: %v", label, err)
			}
			q, gotExtra, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%s: read: %v", label, err)
			}
			if string(gotExtra.Meta) != "m:"+label || gotExtra.AuxVals != nil {
				t.Fatalf("%s: extra sections mangled: %+v", label, gotExtra)
			}
			if q.N() != p.N() || q.Method() != p.Method() || q.NumPacks() != p.NumPacks() {
				t.Fatalf("%s: shape mismatch: n %d/%d method %v/%v packs %d/%d",
					label, q.N(), p.N(), q.Method(), p.Method(), q.NumPacks(), p.NumPacks())
			}
			if q.ValuesVersion() != p.ValuesVersion() {
				t.Fatalf("%s: version %d, want %d", label, q.ValuesVersion(), p.ValuesVersion())
			}
			solveBitwiseEqual(t, p, q, label)

			// The reload keeps accepting input-order Refactor calls.
			vals := mat.Values()
			for i := range vals {
				vals[i] *= 2
			}
			if err := p.Refactor(vals); err != nil {
				t.Fatal(err)
			}
			if err := q.Refactor(vals); err != nil {
				t.Fatalf("%s: reloaded Refactor: %v", label, err)
			}
			solveBitwiseEqual(t, p, q, label+" post-refactor")
		}
	}
}

// TestSnapshotDerivedPlanRefused confirms an IC0 factor plan — whose
// values are derived, not source values — refuses to snapshot rather
// than producing a file that would mis-Refactor after reload.
func TestSnapshotDerivedPlanRefused(t *testing.T) {
	mat, err := Generate("grid3d", 1000)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(mat, STS3)
	if err != nil {
		t.Fatal(err)
	}
	ic0, err := p.IC0()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ic0.WriteSnapshot(&buf, SnapshotExtra{}); !errors.Is(err, ErrSparsityMismatch) {
		t.Fatalf("IC0 snapshot: err = %v, want ErrSparsityMismatch", err)
	}
}

// TestSnapshotRefusesDamage takes a valid snapshot file and feeds the
// reader corrupted, truncated, and version-skewed variants — among them
// a format 1 header, whose files carried a task DAG, and a format 2 one,
// whose files carried the source pattern — every one must be refused
// with ErrBadSnapshot (and the precise codec sentinel), never a crash or
// a silently wrong plan.
func TestSnapshotRefusesDamage(t *testing.T) {
	mat, err := Generate("grid3d", 1200)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(mat, STS3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "p.snap")
	if err := p.WriteSnapshotFile(path, SnapshotExtra{Meta: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, mut []byte, want error) {
		t.Helper()
		q, _, err := ReadSnapshot(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("%s: accepted (n=%d)", name, q.N())
		}
		if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("%s: err = %v, want ErrBadSnapshot", name, err)
		}
		if want != nil && !errors.Is(err, want) {
			t.Fatalf("%s: err = %v, want %v", name, err, want)
		}
	}

	// Truncations at assorted depths, including mid-header and mid-payload.
	for _, cut := range []int{0, 7, 31, 32, 100, len(raw) / 2, len(raw) - 1} {
		check("truncate", raw[:cut], snapshot.ErrInvalid)
	}
	// Single-byte corruption in the payload (CRC must catch it).
	for _, off := range []int{40, 64, 200, len(raw) - 3} {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x20
		check("corrupt", mut, snapshot.ErrInvalid)
	}
	// Version skew.
	mut := append([]byte(nil), raw...)
	mut[8] = 99
	check("version-skew", mut, snapshot.ErrVersion)
	for v, name := range map[uint32]string{1: "format 1", 2: "format 2"} {
		mut = append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(mut[8:], v)
		check(name, mut, snapshot.ErrVersion)
	}
	// Bad magic.
	mut = append([]byte(nil), raw...)
	copy(mut, "NOTASNAP")
	check("magic", mut, snapshot.ErrInvalid)
}

// TestSnapshotRejectsHostilePayload re-encodes a structurally corrupted
// image with a VALID checksum: the plan-level validation (permutation
// bijection, csrk.Build's pattern, boundary and pack-independence
// checks) must still refuse it — the CRC only proves the file is whole,
// not that it is honest. The boundary cases matter most: the task DAG a
// reloaded plan derives is only as sound as the packs it is carved from.
func TestSnapshotRejectsHostilePayload(t *testing.T) {
	mat, err := Generate("grid3d", 1000)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(mat, STS3)
	if err != nil {
		t.Fatal(err)
	}
	img, err := p.snapshotImage(SnapshotExtra{})
	if err != nil {
		t.Fatal(err)
	}
	mutate := []struct {
		name string
		mut  func(*snapshot.Image)
		want string // a fragment of the refusal, when one check must make it
	}{
		{"perm dup", func(i *snapshot.Image) { i.Perm[0] = i.Perm[1] }, ""},
		{"perm oob", func(i *snapshot.Image) { i.Perm[0] = i.N + 5 }, ""},
		{"method", func(i *snapshot.Image) { i.Method = 99 }, ""},
		{"n zero", func(i *snapshot.Image) { i.N = 0 }, ""},
		{"dependent packs merged", mergeDependentPacks, "not independent"},
		{"superptr not monotone", func(i *snapshot.Image) {
			i.SuperPtr[1], i.SuperPtr[2] = i.SuperPtr[2], i.SuperPtr[1]
		}, "SuperPtr not strictly increasing"},
		{"packptr short of the super-rows", func(i *snapshot.Image) {
			i.PackPtr = i.PackPtr[:len(i.PackPtr)-1]
		}, "PackPtr must span"},
	}
	for _, m := range mutate {
		// Round-trip through bytes to get an independent copy, then mutate.
		var buf bytes.Buffer
		if err := snapshot.Write(&buf, img); err != nil {
			t.Fatal(err)
		}
		cp, err := snapshot.Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		m.mut(cp)
		var out bytes.Buffer
		if err := snapshot.Write(&out, cp); err != nil {
			t.Fatal(err)
		}
		if q, _, err := ReadSnapshot(bytes.NewReader(out.Bytes())); err == nil {
			t.Fatalf("%s: hostile image accepted (n=%d)", m.name, q.N())
		} else if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), m.want) {
			t.Fatalf("%s: err = %v, want ErrBadSnapshot naming %q", m.name, err, m.want)
		}
	}
}

// mergeDependentPacks drops the first pack boundary whose later pack
// reads a row of the earlier one, so the merged pack holds two
// super-rows that depend on each other.
func mergeDependentPacks(img *snapshot.Image) {
	rowOf := func(k int) int { return img.SuperPtr[img.PackPtr[k]] }
	for k := 1; k+1 < len(img.PackPtr); k++ {
		lo, mid, hi := rowOf(k-1), rowOf(k), rowOf(k+1)
		for _, j := range img.Col[img.RowPtr[mid]:img.RowPtr[hi]] {
			if j >= lo && j < mid {
				img.PackPtr = slices.Delete(img.PackPtr, k, k+1)
				return
			}
		}
	}
}

// TestSnapshotDerivesTaskDAG: a snapshot carries no task DAG. A
// reloaded plan derives one equal to the source plan's, and its
// 2-worker sweeps equal the sequential oracles bit for bit.
func TestSnapshotDerivesTaskDAG(t *testing.T) {
	mat, err := Generate("grid2d", 400)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range Methods() {
		p, err := Build(mat, method)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := p.WriteSnapshot(&buf, SnapshotExtra{}); err != nil {
			t.Fatal(err)
		}
		q, _, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		s := q.NewSolver(WithWorkers(2))
		if !reflect.DeepEqual(q.vals.TaskDAG(), p.vals.TaskDAG()) {
			t.Fatalf("%v: derived task DAG differs from the source plan's", method)
		}
		b := manufacturedB(q, 1)
		want, err := q.SolveSequential(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		assertVecBitwise(t, method.String()+" solve", got, want)
		wantU, err := sparse.BackwardSubstitution(q.structure().L.Transpose(), b)
		if err != nil {
			t.Fatal(err)
		}
		gotU, err := s.SolveUpper(b)
		if err != nil {
			t.Fatal(err)
		}
		assertVecBitwise(t, method.String()+" upper solve", gotU, wantU)
		s.Close()
	}
}

// TestSnapshotWarmSpeedup asserts the headline durability win: reloading
// a snapshot is at least 10x faster than re-running the ordering
// pipeline, with bitwise-identical solves. The scale is large enough
// that the build's superlinear ordering cost dwarfs the linear reload,
// keeping the margin safe against scheduler noise on loaded machines.
func TestSnapshotWarmSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	mat, err := Generate("grid3d", 1000000)
	if err != nil {
		t.Fatal(err)
	}

	t0 := time.Now()
	p, err := Build(mat, STS3)
	if err != nil {
		t.Fatal(err)
	}
	cold := time.Since(t0)

	path := filepath.Join(t.TempDir(), "p.snap")
	if err := p.WriteSnapshotFile(path, SnapshotExtra{}); err != nil {
		t.Fatal(err)
	}
	t1 := time.Now()
	q, _, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	warm := time.Since(t1)

	solveBitwiseEqual(t, p, q, "warm")
	if warm*10 > cold {
		t.Fatalf("warm reload %v not 10x faster than cold build %v", warm, cold)
	}
	t.Logf("cold build %v, warm reload %v (%.0fx)", cold, warm, float64(cold)/float64(warm))
}
