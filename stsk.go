// Package stsk is a Go reproduction of STS-k, the multilevel sparse
// triangular solution scheme for NUMA multicores of Kabir, Booth, Aupy,
// Benoit, Robert and Raghavan (SC'15 / INRIA RR-8763).
//
// Given a structurally symmetric sparse matrix A = L + Lᵀ, the library
// computes an STS-k ordering — base RCM, super-rows for spatial locality,
// packs of independent super-rows via graph colouring or level sets, packs
// sorted by increasing size, and RCM on each pack's data-affinity-and-reuse
// (DAR) graph for temporal locality — and solves the resulting triangular
// system L′x = b in parallel. The paper sweeps packs under OpenMP-style
// barrier schedules; this library's solvers replace the inter-pack
// barriers with a dependency-driven point-to-point schedule — per-task
// atomic completion counters over a transitively-sparsified task DAG —
// and sweep panels of right-hand sides in one matrix traversal.
//
// Because the Go runtime offers no thread pinning or NUMA placement, the
// paper's hardware timings are reproduced on a deterministic trace-driven
// cache simulator of the two evaluation machines (32-core Intel
// Westmere-EX, 24-core AMD Magny-Cours); see DESIGN.md. Wall-clock
// goroutine solving is also available and correct, just noisier.
//
// Quick start:
//
//	mat, _ := stsk.Generate("trimesh", 20000)
//	plan, _ := stsk.Build(mat, stsk.STS3, stsk.WithRowsPerSuper(80))
//	xTrue := make([]float64, plan.N())  // any target solution, in plan order
//	b := plan.RHSFor(xTrue)             // manufactured right-hand side b = L′·xTrue
//	x, _ := plan.Solve(b)
//
// Every entry point takes the same functional options: Build reads
// WithRowsPerSuper, while NewSolver and NewIC0 read WithWorkers.
//
// For repeated solves against the same plan — the iterative-solver traffic
// the paper targets — create a Solver once and stream right-hand sides
// through it, with context-aware forms for cancellation and deadlines.
// A Solver owns no goroutines: each call is swept by its caller plus the
// idle ones of one process-wide set of parked helpers:
//
//	solver := plan.NewSolver(stsk.WithWorkers(8))
//	defer solver.Close()
//	_ = solver.SolveIntoCtx(ctx, x, b)      // cooperative solve over the task DAG
//	P, _ := solver.SolveBlock(ctx, manyRHS) // blocked: one matrix sweep per RHS panel
//	for i, res := range solver.SolveSeq(ctx, slices.Values(manyRHS)) {
//	    _ = i // ordered streaming, one vector at a time
//	    _ = res.X
//	}
//
// Failures are matched with errors.Is against the package sentinels
// (ErrClosed, ErrDimension, ErrNotConverged, ErrTooLarge and the rest of
// errors.go). The krylov package builds a full preconditioned
// conjugate-gradient solver on top of this facade through the
// Preconditioner interface, and the serve package (daemon:
// cmd/stsserve) exposes plans over HTTP with adaptive coalescing of
// concurrent requests onto the blocked panel kernels.
//
// See DESIGN.md for the build pipeline and the solver-engine lifecycle.
package stsk

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"

	"stsk/internal/cachesim"
	"stsk/internal/csrk"
	"stsk/internal/gen"
	"stsk/internal/ichol"
	"stsk/internal/machine"
	"stsk/internal/metrics"
	"stsk/internal/order"
	"stsk/internal/solve"
	"stsk/internal/sparse"
)

// Method selects one of the paper's four triangular-solution schemes.
type Method = order.Method

// The four schemes of the paper's evaluation (§4.1).
const (
	CSRLS  = order.CSRLS  // level sets on the fine graph (reference)
	CSRCOL = order.CSRCOL // colouring on the fine graph
	CSR3LS = order.CSR3LS // level sets + k-level sub-structuring
	STS3   = order.STS3   // colouring + k-level sub-structuring (the paper's scheme)
)

// Methods lists all four schemes in the paper's presentation order.
func Methods() []Method { return order.Methods() }

// ParseMethod resolves a method's command-line/config spelling ("csr-ls",
// "csr-col", "csr-3-ls", "sts3", case-insensitive, underscores accepted)
// to the Method constant — the single parser shared by the cmds and the
// serve subsystem.
func ParseMethod(s string) (Method, error) {
	switch strings.ToLower(strings.ReplaceAll(s, "_", "-")) {
	case "csr-ls", "csrls":
		return CSRLS, nil
	case "csr-3-ls", "csr3ls":
		return CSR3LS, nil
	case "csr-col", "csrcol":
		return CSRCOL, nil
	case "sts3", "sts-3", "csr-3-col":
		return STS3, nil
	}
	return 0, fmt.Errorf("stsk: unknown method %q", s)
}

// Matrix is a structurally symmetric sparse matrix with a full nonzero
// diagonal — the A = L + Lᵀ input of the STS-k pipeline.
type Matrix struct {
	a *sparse.CSR
}

// N returns the matrix dimension.
func (m *Matrix) N() int { return m.a.N }

// NNZ returns the number of stored entries.
func (m *Matrix) NNZ() int { return m.a.NNZ() }

// RowDensity returns mean stored entries per row.
func (m *Matrix) RowDensity() float64 { return m.a.RowDensity() }

// Values returns a copy of the stored entry values in CSR order — the
// array Plan.Refactor accepts. Mutate the copy and hand it back to
// Refactor (or SetValues) to step an evolving system without rebuilding
// the plan.
func (m *Matrix) Values() []float64 {
	return append([]float64(nil), m.a.Val...)
}

// SetValues replaces the matrix's entry values in place, keeping the
// sparsity pattern. The length must match NNZ; vals is copied.
func (m *Matrix) SetValues(vals []float64) error {
	if len(vals) != len(m.a.Val) {
		return fmt.Errorf("%w: %d values for a matrix with %d stored entries", ErrDimension, len(vals), len(m.a.Val))
	}
	copy(m.a.Val, vals)
	return nil
}

// Generate builds a synthetic matrix of one of the paper's Table 1 classes
// at roughly n rows. Classes: "grid2d", "grid3d", "kkt3d", "fem3d", "rgg",
// "trimesh", "quaddual", "roadnet".
func Generate(class string, n int) (*Matrix, error) {
	if n < 16 {
		n = 16
	}
	side2 := intSqrt(n)
	side3 := intCbrt(n)
	var a *sparse.CSR
	switch class {
	case "grid2d":
		a = gen.Grid2D(side2, side2)
	case "grid3d":
		a = gen.Grid3D(side3, side3, side3)
	case "kkt3d":
		a = gen.KKT3D(side3, side3, side3)
	case "fem3d":
		s := intCbrt(n / 2)
		a = gen.FEM3D(s, s, s, 2)
	case "rgg":
		a = gen.RGG(n, gen.RGGDegree(n, 14), 21)
	case "trimesh":
		a = gen.TriMesh(side2, side2, 7)
	case "quaddual":
		a = gen.QuadDual(intSqrt(n/2), intSqrt(n/2), 4)
	case "roadnet":
		a = gen.RoadNet(intSqrt(n/7), intSqrt(n/7), 3, 5, 3)
	default:
		return nil, fmt.Errorf("stsk: unknown matrix class %q", class)
	}
	return &Matrix{a: a}, nil
}

// SuiteIDs returns the paper's Table 1 matrix labels in order.
func SuiteIDs() []string {
	specs := gen.PaperSuite(64)
	ids := make([]string, len(specs))
	for i, s := range specs {
		ids[i] = s.ID
	}
	return ids
}

// GenerateSuite builds the Table 1 stand-in with the given paper label
// ("G1", "D1", "S1", "D2".."D10") at roughly scale rows.
func GenerateSuite(id string, scale int) (*Matrix, error) {
	spec := gen.BySuiteID(gen.PaperSuite(scale), id)
	if spec == nil {
		return nil, fmt.Errorf("stsk: unknown suite matrix %q (have %v)", id, SuiteIDs())
	}
	return &Matrix{a: spec.Build(scale)}, nil
}

// ReadMatrixMarket loads a Matrix Market coordinate stream. Triangular or
// unsymmetric inputs are symmetrised structurally (A = L + Lᵀ on the
// pattern), a missing diagonal is completed, and the values are replaced
// by SPD-by-dominance values so the lower triangle is a well-conditioned
// solvable system. Use this to drop real UF collection matrices into the
// pipeline.
func ReadMatrixMarket(r io.Reader) (*Matrix, error) {
	a, err := sparse.ReadMatrixMarket(r)
	if err != nil {
		return nil, err
	}
	if !a.IsStructurallySymmetric() {
		a = sparse.SymmetrizePattern(a)
	}
	a = sparse.EnsureDiagonal(a)
	if err := sparse.AssignSPDValues(a); err != nil {
		return nil, err
	}
	return &Matrix{a: a}, nil
}

// ReadMatrixMarketFile is ReadMatrixMarket over a file path — the
// open/read/close sequence previously copy-pasted across the cmds, shared
// here so every loader (cmd/stssolve, cmd/stsinfo, the serve registry)
// applies the same symmetrisation and SPD value policy.
func ReadMatrixMarketFile(path string) (*Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := ReadMatrixMarket(f)
	if err != nil {
		return nil, fmt.Errorf("stsk: %s: %w", path, err)
	}
	return m, nil
}

// Plan is a built STS-k ordering: the permuted triangular system plus the
// pack/super-row structure, ready to solve repeatedly for many right-hand
// sides (the pre-processing the paper amortises, §4.1).
//
// A Plan keeps only what it cannot derive: the method, the permutation
// and the factor's value sequence. Everything else — the packed layouts,
// the task DAG, A′, the map from source entries to factor slots — is
// derived from the factor's pattern, once per pattern, by the value
// sequence or on the plan's first Refactor.
type Plan struct {
	method Method
	perm   []int // input row → row of the plan's triangular system

	// vals is the plan's copy-on-write value-epoch sequence: the factor,
	// whose values Refactor swaps atomically, and every layout derived
	// from it — per pattern (packed-layout indices, task DAG, A′'s
	// indices), shared across epochs and with the plans derived from this
	// one (IC0), and per epoch (the values gathered into them).
	vals *solve.Values

	// derived marks a plan whose values are computed from another's (an
	// IC0 factor) rather than copied from a source matrix: it refuses
	// Refactor and WriteSnapshot.
	derived bool

	// refactorMu serialises Refactor calls and guards slots, the lazily
	// derived map from source CSR entry to factor value slot (-1 for
	// entries landing above the diagonal after permutation). Slots fit
	// int32: checkFactorSize bounds the factor's entry count.
	refactorMu sync.Mutex
	slots      []int32

	// shared is the plan's own persistent Solver, built on first
	// default-option Solve/SolveUpper so repeated solves reuse its
	// preallocated scheduling state.
	sharedOnce sync.Once
	shared     *Solver
}

// structure returns the current value epoch's structure: the shared
// symbolic arrays plus the live value array. Everything on the Plan that
// reads factor values goes through here, so a Refactor is visible to all
// of it.
func (p *Plan) structure() *csrk.Structure { return p.vals.Structure() }

// sharedSolver returns (building once, concurrency-safe) the plan's
// persistent default-option Solver.
func (p *Plan) sharedSolver() *Solver {
	p.sharedOnce.Do(func() { p.shared = p.NewSolver() })
	return p.shared
}

// ApplySymmetric computes y = A′·x where A′ is the plan-ordered symmetric
// matrix whose lower triangle the plan solves — the operator a
// preconditioned-CG iteration multiplies by. The caller and up to
// GOMAXPROCS−1 idle solve helpers sweep it in row chunks, each row summed
// in entry order, so y is the same bit for bit at any worker count.
// Vectors of the wrong length are refused with ErrDimension, and a
// contained kernel panic returns as ErrInternal.
func (p *Plan) ApplySymmetric(y, x []float64) error {
	if n := p.N(); len(y) != n || len(x) != n {
		return dimErr(len(y), len(x), n)
	}
	a, rows := p.vals.Symmetric()
	return rows.Apply(a, y, x)
}

// Diagonal returns a copy of the diagonal of the plan's system at the
// current value epoch.
func (p *Plan) Diagonal() []float64 {
	l := p.structure().L
	d := make([]float64, l.N)
	for i := 0; i < l.N; i++ {
		d[i] = l.Val[l.RowPtr[i+1]-1]
	}
	return d
}

// SolveUpper solves L′ᵀ z = b with the parallel backward solver (the
// task DAG in reverse) — the second sweep of a symmetric Gauss–Seidel
// or incomplete-Cholesky preconditioner whose first sweep is the plan's
// forward solve. It runs on the plan's shared persistent Solver, like
// Solve. A right-hand side of the wrong length returns ErrDimension
// before the shared Solver is even created.
func (p *Plan) SolveUpper(b []float64) ([]float64, error) {
	if err := p.checkDim(b); err != nil {
		return nil, err
	}
	return p.sharedSolver().SolveUpper(b)
}

// checkDim validates one plan-order vector length at the facade, so a
// short or long right-hand side fails fast with ErrDimension instead of
// reaching a solve kernel.
func (p *Plan) checkDim(v []float64) error {
	if len(v) != p.N() {
		return fmt.Errorf("%w: vector length %d, want %d", ErrDimension, len(v), p.N())
	}
	return nil
}

// IC0 computes the zero-fill incomplete Cholesky factor of the plan's
// symmetric matrix A′ at the current value epoch and returns a new Plan
// over the factor L̂. IC(0) keeps the pattern of tril(A′), which is L′'s,
// so the factor is numeric work only: it is computed on L′'s pattern and
// shares all of the plan's symbolic state — pattern arrays, permutation,
// pack and super-row boundaries, and every layout derived from the
// pattern (task DAG, packed-layout indices, A′'s indices).
// Solving with the returned plan applies the triangular sweeps of the
// preconditioner M = L̂·L̂ᵀ, the setting that motivates the paper (§1).
//
// The factor is computed like a solve: the caller and up to
// GOMAXPROCS−1 idle solve helpers factor the rows over the plan's task
// DAG, which orders every row after the rows it reads, and write each
// finished row straight into the packed layout the factor's forward
// sweeps read. Every row runs the sequential factorisation's arithmetic,
// so the factor is the same bit for bit at any worker count. NewIC0
// takes a worker bound.
//
// AutoBoost shifts the diagonal if A′ is not positive definite enough
// for IC(0): a pivot that comes out non-positive or NaN is retried at a
// larger shift, and a refusal after the last shift names its row. A
// factor value that comes out NaN or infinite after a positive pivot is
// refused with ErrNonFinite, and a contained panic with ErrInternal. A
// refusal returns no plan.
func (p *Plan) IC0() (*Plan, error) { return p.ic0(0) }

// ic0 is IC0 on at most workers goroutines; 0 means GOMAXPROCS.
func (p *Plan) ic0(workers int) (*Plan, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	vals, err := p.vals.DeriveIC0(ichol.Options{AutoBoost: true}, workers)
	if errors.Is(err, solve.ErrNonFinite) {
		return nil, fmt.Errorf("stsk: ic0 factor refused: %w", err)
	}
	if err != nil {
		return nil, err
	}
	return &Plan{method: p.method, perm: p.perm, vals: vals, derived: true}, nil
}

// Build runs the ordering pipeline for the given method. WithRowsPerSuper
// sets the super-row size; solver options are ignored here and read by
// NewSolver instead. A factor whose dimension or stored-entry count does
// not fit 32-bit indices is refused with ErrTooLarge, and one holding a
// NaN or infinite value with ErrNonFinite.
//
// The plan keeps no copy of m's pattern. The pipeline takes a
// structurally symmetric matrix with a full diagonal and strictly sorted
// rows, so m stores entry (i, j) exactly where (perm[i], perm[j]) is an
// entry of L′ + L′ᵀ, and Refactor derives m's entry order from the
// factor.
func Build(m *Matrix, method Method, opts ...Option) (*Plan, error) {
	c := applyOptions(opts)
	p, err := order.Build(m.a, order.Options{Method: method, RowsPerSuper: c.rowsPerSuper})
	if err != nil {
		return nil, err
	}
	if err := checkFactorSize(p.S.L); err != nil {
		return nil, err
	}
	return &Plan{method: p.Method, perm: p.Perm, vals: solve.NewValues(p.S)}, nil
}

// Refactor replaces the plan's factor values with new ones for the same
// sparsity — numeric refactorization. values is the CSR value array of
// the input matrix the plan was built from (Matrix.Values order); it is
// mapped through the plan's permutation onto the lower factor and
// published as a new copy-on-write value epoch. All symbolic work — the
// pack partition, the task DAG, the permutations, the packed-layout
// geometry — is reused, so Refactor costs O(nnz) instead of a rebuild,
// and subsequent solves are bitwise identical to those of a plan freshly
// built on the new values. The plan's first Refactor also derives the
// map from input entries to factor slots, once.
//
// The swap is atomic and lock-free for solvers: solves already dispatched
// (including every member of an in-flight batch or block call) complete
// on the old values; solves dispatched afterwards see the new ones. No
// solve ever observes a mix.
//
// A values slice whose length does not match the plan's pattern, or a
// derived plan (IC0 factor), is rejected with ErrSparsityMismatch; a NaN
// or infinite factor value with ErrNonFinite; a zero diagonal is rejected
// too. A rejection publishes nothing. Derived state
// (Diagonal, ApplySymmetric, IC0) reflects the new values on next use,
// and costs value work only: ApplySymmetric gathers A′'s values onto its
// existing pattern, and an IC0 factor — re-derived by calling IC0 again
// after Refactor — reuses the plan's pattern, task DAG and packed
// indices.
func (p *Plan) Refactor(values []float64) error {
	p.refactorMu.Lock()
	defer p.refactorMu.Unlock()
	if p.derived {
		return fmt.Errorf("%w: plan derives its values (IC0 factor); refactor the base plan and call IC0 again", ErrSparsityMismatch)
	}
	l := p.structure().L // pattern arrays, shared by every epoch
	if want := 2*len(l.Col) - l.N; len(values) != want {
		return fmt.Errorf("%w: %d values for a pattern with %d stored entries", ErrSparsityMismatch, len(values), want)
	}
	if p.slots == nil {
		sh, err := p.vals.Shape()
		if err != nil {
			return fmt.Errorf("stsk: refactor: %w", err)
		}
		p.slots = sourceSlots(l, sh, p.perm)
	}
	// The scatter checks every value it writes: Swap does not look again.
	newVal := make([]float64, len(l.Val))
	finite := true
	for k, idx := range p.slots {
		if idx >= 0 {
			v := values[k]
			if v-v != 0 { // NaN or ±Inf; see solve.CheckFinite
				finite = false
			}
			newVal[idx] = v
		}
	}
	if !finite {
		// Name the factor's lowest non-finite entry, as a check of the
		// whole array would.
		return fmt.Errorf("stsk: refactor: %w", solve.CheckFinite(newVal))
	}
	if err := p.vals.Swap(newVal); err != nil {
		return fmt.Errorf("stsk: refactor: %w", err)
	}
	return nil
}

// RefactorMatrix is Refactor accepting a matrix, validating that its
// sparsity is identical to the pattern the plan was built from. Use it
// when the evolving system hands back whole matrices; use Refactor when
// only the value array changes.
func (p *Plan) RefactorMatrix(m *Matrix) error {
	if m == nil || m.a == nil {
		return fmt.Errorf("%w: nil matrix", ErrSparsityMismatch)
	}
	if !isSourcePattern(m.a, p.structure().L, p.perm) {
		return fmt.Errorf("%w: matrix pattern differs from the one the plan was built from", ErrSparsityMismatch)
	}
	return p.Refactor(m.a.Val)
}

// ValuesVersion returns the plan's value-epoch sequence number: 0 at
// Build, incremented by every successful Refactor. Serving layers use it
// to report which numeric version a solve ran against.
func (p *Plan) ValuesVersion() uint64 { return p.vals.Version() }

// sourceSlots maps every stored entry (i, j) of the source matrix, in its
// CSR order, to the slot of (perm[i], perm[j]) in the values of the lower
// factor l — or to -1 where that entry lies above the diagonal and its
// mirror carries the value. The source stores (i, j) exactly where
// (perm[i], perm[j]) is on l + lᵀ (see Build), so its row i has one entry
// per entry of row perm[i] of l and of lᵀ, and column j lists, by
// symmetry, the rows of those entries of row perm[j]. One counting pass
// over the source columns in ascending order deals each entry to its row
// and so fills every row in ascending column order — CSR order — with no
// sort, the way a CSR transpose does.
func sourceSlots(l *sparse.CSR, sh *sparse.PackShape, perm []int) []int32 {
	n := l.N
	inv := sparse.InvertPermutation(perm)
	next := make([]int, n+1) // next[i+1]: row i's length, then its fill cursor
	for i, pi := range perm {
		up, _ := sh.UpperRow(pi)
		next[i+1] = l.RowPtr[pi+1] - l.RowPtr[pi] + len(up)
	}
	for i := 0; i < n; i++ {
		next[i+1] += next[i]
	}
	slots := make([]int32, next[n])
	for j, pj := range perm {
		lo, diag := l.RowPtr[pj], l.RowPtr[pj+1]-1
		for _, c := range l.Col[lo:diag] { // (perm[i], pj) above the diagonal
			i := inv[c]
			slots[next[i]] = -1
			next[i]++
		}
		slots[next[j]] = int32(diag)
		next[j]++
		up, src := sh.UpperRow(pj)
		for k, c := range up { // (perm[i], pj) below it: l's entry src[k]
			i := inv[c]
			slots[next[i]] = src[k]
			next[i]++
		}
	}
	return slots
}

// isSourcePattern reports whether a, a matrix's well-formed CSR, has the
// pattern of the source matrix of a plan with lower factor l and
// permutation perm, entry for entry in CSR order. It counts a's entries
// against those of l + lᵀ, checks every row strictly ascending, and finds
// every permuted entry on l or its mirror: with no repeated entry the map
// from a's entries to those of l + lᵀ is injective, so equal counts make
// it onto and the patterns equal.
func isSourcePattern(a, l *sparse.CSR, perm []int) bool {
	n := l.N
	if a.N != n || len(a.Col) != 2*len(l.Col)-n {
		return false
	}
	for i := 0; i < n; i++ {
		prev := -1
		for _, j := range a.Col[a.RowPtr[i]:a.RowPtr[i+1]] {
			if j <= prev {
				return false
			}
			prev = j
			r, c := perm[i], perm[j]
			if c > r {
				r, c = c, r
			}
			if _, ok := slices.BinarySearch(l.Col[l.RowPtr[r]:l.RowPtr[r+1]], c); !ok {
				return false
			}
		}
	}
	return true
}

// Method returns the scheme this plan implements.
func (p *Plan) Method() Method { return p.method }

// N returns the system dimension.
func (p *Plan) N() int { return len(p.perm) }

// NumPacks returns the number of parallel steps (synchronisation points).
func (p *Plan) NumPacks() int { return p.structure().NumPacks() }

// Permutation returns a copy of the row permutation (original index of the
// input matrix → row of the plan's triangular system).
func (p *Plan) Permutation() []int {
	return append([]int(nil), p.perm...)
}

// PermuteVector maps a vector from the original index order into plan
// order: out[perm[i]] = v[i].
func (p *Plan) PermuteVector(v []float64) []float64 {
	return (&order.Plan{Perm: p.perm}).PermuteRHS(v)
}

// UnpermuteVector maps a plan-order vector back to the original order.
func (p *Plan) UnpermuteVector(v []float64) []float64 {
	return (&order.Plan{Perm: p.perm}).UnpermuteSolution(v)
}

// RHSFor returns b = L′·x for a chosen solution x (in plan order), handy
// for tests and demos.
func (p *Plan) RHSFor(x []float64) []float64 {
	return sparse.RHSForSolution(p.structure().L, x)
}

// Residual returns the infinity-norm residual ‖L′x − b‖∞.
func (p *Plan) Residual(x, b []float64) float64 {
	return sparse.Residual(p.structure().L, x, b)
}

// Solve solves L′x = b (both in plan order) and returns x. It runs on the
// plan's shared persistent Solver, so repeated calls reuse its
// preallocated scheduling state, and concurrent calls run side by side.
// A Plan.NewSolver is the route to other worker counts, block solves,
// contexts, and explicit lifecycle control. A right-hand side of the
// wrong length returns ErrDimension before the shared Solver is even
// created.
func (p *Plan) Solve(b []float64) ([]float64, error) {
	if err := p.checkDim(b); err != nil {
		return nil, err
	}
	return p.sharedSolver().Solve(b)
}

// SolveSequential solves L′x = b on one core — the baseline T(·, ·, 1).
func (p *Plan) SolveSequential(b []float64) ([]float64, error) {
	return solve.Sequential(p.structure(), b)
}

// Stats summarises the pack structure of a plan (Figures 7–8 measures).
type Stats struct {
	NumPacks        int
	Rows            int
	NNZ             int64
	MeanRowsPerPack float64
	LargestPackRows int
	// WorkShareTop5 is the fraction of nonzeros in the 5 largest packs.
	WorkShareTop5 float64
}

// Stats computes the parallelism measures of the plan.
func (p *Plan) Stats() Stats {
	st := metrics.Analyze(p.structure())
	return Stats{
		NumPacks:        st.NumPacks,
		Rows:            st.Rows,
		NNZ:             st.NNZ,
		MeanRowsPerPack: st.MeanRowsPerPack,
		LargestPackRows: st.LargestPackRows,
		WorkShareTop5:   st.WorkShareTop5,
	}
}

// SimResult is the outcome of a modeled solve on a NUMA topology.
type SimResult struct {
	Machine    string
	Cores      int
	Cycles     uint64  // modeled makespan
	SyncCycles uint64  // barrier portion
	HitRate    float64 // fraction of accesses served by L1/L2/local L3
	NumPacks   int
}

// MachineNames lists the built-in NUMA topologies: "intel" (32-core
// Westmere-EX), "amd" (24-core Magny-Cours), "uma" (flat 32-core
// reference).
func MachineNames() []string { return []string{"intel", "amd", "uma"} }

// Simulate replays the plan's solve on the named topology with the given
// core count (compact placement) and returns modeled cycles — the
// reproduction's stand-in for the paper's pinned hardware timings.
func (p *Plan) Simulate(machineName string, cores int) (SimResult, error) {
	topo, ok := machine.Known()[machineName]
	if !ok {
		return SimResult{}, fmt.Errorf("stsk: unknown machine %q (have %v)", machineName, MachineNames())
	}
	chunk := 1
	if !p.method.UsesSuperRows() {
		chunk = 32
	}
	res, err := cachesim.Simulate(p.structure(), topo, cachesim.Options{Cores: cores, Chunk: chunk, Repeats: 2})
	if err != nil {
		return SimResult{}, err
	}
	return SimResult{
		Machine:    topo.Name,
		Cores:      cores,
		Cycles:     res.Cycles,
		SyncCycles: res.SyncCycles,
		HitRate:    res.HitRate,
		NumPacks:   res.NumPacks,
	}, nil
}

// checkFactorSize refuses a factor the packed solve kernels cannot index
// (ErrTooLarge) or holding a NaN or infinite value (ErrNonFinite). Build
// and ReadSnapshot both call it, so every Plan's factor — and every
// factor derived from it, which shares its pattern — has a packed
// layout, and no Plan starts out on values a sweep cannot carry.
func checkFactorSize(l *sparse.CSR) error {
	if err := sparse.CheckPackable(l); err != nil {
		return fmt.Errorf("stsk: factor refused: %w", err)
	}
	if err := solve.CheckFinite(l.Val); err != nil {
		return fmt.Errorf("stsk: factor refused: %w", err)
	}
	return nil
}

func intSqrt(n int) int {
	s := 1
	for (s+1)*(s+1) <= n {
		s++
	}
	if s < 2 {
		s = 2
	}
	return s
}

func intCbrt(n int) int {
	s := 1
	for (s+1)*(s+1)*(s+1) <= n {
		s++
	}
	if s < 2 {
		s = 2
	}
	return s
}
