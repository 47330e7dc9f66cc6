package solve

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"stsk/internal/faultinject"
	"stsk/internal/gen"
	"stsk/internal/ichol"
	"stsk/internal/order"
	"stsk/internal/panicsafe"
	"stsk/internal/sparse"
	"stsk/internal/testmat"
)

// checkDeriveIC0 derives IC(0) from v at the given worker count and
// requires ichol.Factor's outcome on the live factor: the same values
// bit for bit and a packed lower layout holding them, or a refusal with
// the same text (a non-finite reference factor reads as CheckFinite's
// refusal of it).
func checkDeriveIC0(t *testing.T, label string, v *Values, opts ichol.Options, workers int) {
	t.Helper()
	want, wantErr := ichol.Factor(v.Structure().L, opts)
	if wantErr == nil {
		wantErr = CheckFinite(want)
	}
	d, err := v.DeriveIC0(opts, workers)
	if wantErr != nil {
		if err == nil || d != nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: derive %v, reference refused with %q", label, err, wantErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	assertBitwise(t, label, d.Structure().L.Val, want)
	sh, err := v.Shape()
	if err != nil {
		t.Fatal(err)
	}
	assertPackedEqual(t, label+" packed", d.Current().pk, sh.Lower(want))
}

// TestDeriveIC0MatchesFactor: the factor swept over the task DAG equals
// ichol.Factor bit for bit — and so does its packed lower layout — for
// the corpus under every method at 1, 2 and 4 workers, on the built
// values, on a swap whose unshifted factorisation breaks down (so
// AutoBoost retries), and with AutoBoost off, where that swap is refused
// with the reference's text.
func TestDeriveIC0MatchesFactor(t *testing.T) {
	for _, ent := range testmat.Corpus() {
		for _, method := range order.Methods() {
			p := planFor(t, ent.A, method)
			v := NewValues(p.S)
			l := p.S.L
			indefinite := append([]float64(nil), l.Val...)
			mid := l.N / 2
			indefinite[l.RowPtr[mid+1]-1] *= -1
			for _, workers := range []int{1, 2, 4} {
				label := fmt.Sprintf("%s/%v/w=%d", ent.Name, method, workers)
				checkDeriveIC0(t, label, v, ichol.Options{AutoBoost: true}, workers)
			}
			if err := v.Swap(indefinite); err != nil {
				t.Fatal(err)
			}
			if _, err := ichol.Factor(v.Structure().L, ichol.Options{}); err == nil {
				t.Fatalf("%s/%v: a negated diagonal factored unshifted", ent.Name, method)
			}
			for _, workers := range []int{1, 2, 4} {
				label := fmt.Sprintf("%s/%v/w=%d/indefinite", ent.Name, method, workers)
				checkDeriveIC0(t, label, v, ichol.Options{AutoBoost: true}, workers)
				checkDeriveIC0(t, label+"/no-boost", v, ichol.Options{}, workers)
			}
		}
	}
}

// TestDeriveIC0NamesLowestFailingRow: with AutoBoost off, two rows
// break down in two tasks of one pack — which never wait on each other —
// the lower row last in the first task, the higher row first in the
// last, so different workers reach them in either order. The refusal
// must name the lower row with ichol.Factor's exact text every time,
// whichever fails first.
func TestDeriveIC0NamesLowestFailingRow(t *testing.T) {
	p := planFor(t, testmat.BlockDiag(8, gen.Grid2D(20, 20)), order.STS3)
	v := NewValues(p.S)
	dag := v.TaskDAG()
	// Tasks tile the super-rows in order, never crossing a pack, so two
	// neighbours that start in one pack both lie in it.
	packOf := func(task int) int { return sort.SearchInts(p.S.PackPtr, int(dag.TaskPtr[task])+1) }
	first, last := -1, -1
	for task := 0; task+1 < dag.NumTasks() && first < 0; task++ {
		if packOf(task) == packOf(task+1) {
			first, last = task, task+1
		}
	}
	if first < 0 {
		t.Fatalf("no pack holds two of the %d tasks", dag.NumTasks())
	}
	_, low := dag.TaskRows(first)
	low--
	high, _ := dag.TaskRows(last)
	l := p.S.L
	val := append([]float64(nil), l.Val...)
	for _, i := range []int{low, high} {
		val[l.RowPtr[i+1]-1] = -1
	}
	if err := v.Swap(val); err != nil {
		t.Fatal(err)
	}
	_, wantErr := ichol.Factor(v.Structure().L, ichol.Options{})
	var bd *ichol.Breakdown
	if !errors.As(wantErr, &bd) || bd.Row != low {
		t.Fatalf("reference: %v, want a breakdown at row %d", wantErr, low)
	}
	for _, workers := range []int{2, 4} {
		for range 100 {
			d, err := v.DeriveIC0(ichol.Options{}, workers)
			if d != nil || err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("w=%d: %v, want %q", workers, err, wantErr)
			}
		}
	}
}

// TestDeriveIC0NonFiniteNotRetried: a diagonal of MaxFloat64 factors
// unshifted, but the first boosted shift (10⁻³ of it) overflows it to
// +Inf, and its square root with it. A negated diagonal elsewhere makes
// the unshifted attempt break down, so AutoBoost takes that shift. The
// overflow is refused with ErrNonFinite, naming the diagonal's stored
// entry as CheckFinite of the reference factor does, at every worker
// count — and no third attempt is made: with an injected engine.job
// error armed for a one-worker call's third firing (one per attempt),
// the refusal is still ErrNonFinite, while the same error armed for the
// second firing shows that the breakdown is retried.
func TestDeriveIC0NonFiniteNotRetried(t *testing.T) {
	p := planFor(t, testmat.Grid3D(5), order.STS3)
	v := NewValues(p.S)
	l := p.S.L
	big, neg := l.N/3, 2*l.N/3
	val := append([]float64(nil), l.Val...)
	val[l.RowPtr[big+1]-1] = math.MaxFloat64
	val[l.RowPtr[neg+1]-1] = -1
	if err := v.Swap(val); err != nil {
		t.Fatal(err)
	}
	opts := ichol.Options{AutoBoost: true}
	for _, workers := range []int{1, 2, 4} {
		checkDeriveIC0(t, fmt.Sprintf("w=%d", workers), v, opts, workers)
		if _, err := v.DeriveIC0(opts, workers); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("w=%d: %v, want ErrNonFinite", workers, err)
		}
	}
	for _, tc := range []struct {
		spec string
		want error
	}{
		{"engine.job:error:after=1", faultinject.ErrInjected},
		{"engine.job:error:after=2", ErrNonFinite},
	} {
		withFaults(t, tc.spec, 1)
		if _, err := v.DeriveIC0(opts, 1); !errors.Is(err, tc.want) {
			t.Fatalf("%s: %v, want %v", tc.spec, err, tc.want)
		}
		faultinject.Disable()
	}
}

// TestDeriveIC0ContainsFaults: a panic in, or an injected error from,
// the participants of a factorisation fails the call as it fails a solve
// — ErrInternal or the injected error — inline and over the DAG, even
// when only one of two participants bows out and its mate factors every
// row; nothing is published, and the next clean call returns the
// reference factor.
func TestDeriveIC0ContainsFaults(t *testing.T) {
	p := planFor(t, gen.Grid2D(12, 12), order.STS3)
	v := NewValues(p.S)
	opts := ichol.Options{AutoBoost: true}
	for _, tc := range []struct {
		spec    string
		workers int
		want    error
	}{
		{"engine.job:panic", 1, panicsafe.ErrInternal},
		{"engine.job:panic", 2, panicsafe.ErrInternal},
		{"engine.job:error", 1, faultinject.ErrInjected},
		{"engine.job:error", 4, faultinject.ErrInjected},
		{"engine.job:error:count=1", 2, faultinject.ErrInjected},
	} {
		withFaults(t, tc.spec, 1)
		d, err := v.DeriveIC0(opts, tc.workers)
		if !errors.Is(err, tc.want) || d != nil {
			t.Fatalf("%s w=%d: %v, %v; want %v and no sequence", tc.spec, tc.workers, d, err, tc.want)
		}
		faultinject.Disable()
		checkDeriveIC0(t, tc.spec+" then clean", v, opts, tc.workers)
	}
	if v.Version() != 0 {
		t.Fatal("a failed derive changed the base sequence")
	}
}

// TestDeriveIC0InlineBuildsNoDAG: a one-worker factorisation, and one of
// a single super-row at any worker count, runs on the caller and builds
// no task DAG.
func TestDeriveIC0InlineBuildsNoDAG(t *testing.T) {
	for _, tc := range []struct {
		name    string
		a       *sparse.CSR
		rows    int
		workers int
	}{
		{"one worker", gen.Grid2D(12, 12), 8, 1},
		{"one super-row", gen.Grid2D(6, 6), 80, 4},
	} {
		p, err := order.Build(tc.a, order.Options{Method: order.STS3, RowsPerSuper: tc.rows})
		if err != nil {
			t.Fatal(err)
		}
		if tc.workers > 1 && p.S.NumSuperRows() != 1 {
			t.Fatalf("%s: %d super-rows, want one", tc.name, p.S.NumSuperRows())
		}
		v := NewValues(p.S)
		checkDeriveIC0(t, tc.name, v, ichol.Options{AutoBoost: true}, tc.workers)
		if v.pat.dag != nil {
			t.Fatalf("%s: an inline factorisation built the task DAG", tc.name)
		}
	}
}
