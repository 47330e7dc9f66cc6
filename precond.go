package stsk

// Preconditioner applies z = M⁻¹r for a symmetric positive definite
// preconditioner M of the plan's symmetric matrix A′. It is the seam
// between this package and iterative solvers: the krylov package accepts
// any Preconditioner, and the built-in implementations — Jacobi,
// symmetric Gauss–Seidel, and incomplete Cholesky IC(0) — ride the
// persistent Solver so every application is two cooperative
// pack-parallel triangular sweeps at most.
//
// Apply must treat r as read-only, must fully overwrite z, and must
// accept z and r of length Plan.N(), returning ErrDimension otherwise.
// Implementations here are safe for concurrent use.
type Preconditioner interface {
	Apply(z, r []float64) error
}

// jacobi is the diagonal preconditioner M = D. It divides rather than
// multiplying by a precomputed reciprocal so z = r/d holds bitwise, like
// every other kernel in this package.
type jacobi struct {
	diag []float64
}

// NewJacobi returns the Jacobi (diagonal) preconditioner M = D of the
// plan's symmetric matrix — the cheapest preconditioner, one divide per
// unknown and no triangular solves.
func NewJacobi(p *Plan) Preconditioner {
	return &jacobi{diag: p.Diagonal()}
}

func (m *jacobi) Apply(z, r []float64) error {
	if len(z) != len(m.diag) || len(r) != len(m.diag) {
		return dimErr(len(z), len(r), len(m.diag))
	}
	for i := range z {
		z[i] = r[i] / m.diag[i]
	}
	return nil
}

// sgs applies M = L′ D⁻¹ L′ᵀ on a caller-owned Solver.
type sgs struct {
	s *Solver
}

// NewSGS returns the symmetric Gauss–Seidel preconditioner
// M = L′ D⁻¹ L′ᵀ applied on the given Solver: a pack-parallel forward
// sweep, a diagonal scale, and a pack-parallel backward sweep per
// application. The caller keeps ownership of the
// Solver and its lifecycle.
func NewSGS(s *Solver) Preconditioner { return &sgs{s: s} }

// Apply delegates to ApplySGSInto, which already validates both vectors
// against the plan and reports ErrDimension.
func (m *sgs) Apply(z, r []float64) error { return m.s.ApplySGSInto(z, r) }

// IC0Preconditioner applies the zero-fill incomplete-Cholesky
// preconditioner M = L̂·L̂ᵀ: a forward and a backward pack-parallel sweep
// of the factor, both on a dedicated persistent Solver over the factor
// plan. Close retires that Solver; an IC0Preconditioner dropped without
// Close leaves nothing behind, like any Solver.
type IC0Preconditioner struct {
	factor *Plan
	solver *Solver
}

// NewIC0 factors the plan's symmetric matrix with zero-fill incomplete
// Cholesky (Plan.IC0, auto-boosting the diagonal when needed) and builds
// a persistent Solver over the factor with the given scheduling options.
// The factor shares the plan's symbolic state, so re-deriving the
// preconditioner after a Plan.Refactor costs value work only.
func NewIC0(p *Plan, opts ...Option) (*IC0Preconditioner, error) {
	factor, err := p.IC0()
	if err != nil {
		return nil, err
	}
	return &IC0Preconditioner{factor: factor, solver: factor.NewSolver(opts...)}, nil
}

// Factor returns the plan over the incomplete-Cholesky factor L̂ — same
// permutation and pack structure as the source plan, factored values.
func (m *IC0Preconditioner) Factor() *Plan { return m.factor }

// Close retires the preconditioner's Solver: later applications fail with
// ErrClosed.
func (m *IC0Preconditioner) Close() { m.solver.Close() }

// Apply computes z = (L̂·L̂ᵀ)⁻¹ r with two cooperative triangular
// sweeps; the Solver's Into methods validate both vectors and report
// ErrDimension.
// The intermediate rides the factor Solver's own scratch pool.
func (m *IC0Preconditioner) Apply(z, r []float64) error {
	yp := m.solver.scratch.Get().(*[]float64)
	y := *yp
	defer m.solver.scratch.Put(yp)
	if err := m.solver.SolveInto(y, r); err != nil {
		return err
	}
	return m.solver.SolveUpperInto(z, y)
}
