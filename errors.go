package stsk

import (
	"errors"
	"fmt"

	"stsk/internal/panicsafe"
	"stsk/internal/solve"
	"stsk/internal/sparse"
)

// Sentinel errors of the v2 API. All of them are stable values matched
// with errors.Is; the concrete errors returned by the facade, the solve
// engine, and the krylov package wrap them with call-site detail.
var (
	// ErrClosed reports a solve issued on a Solver after Close. It is the
	// same value the internal engine returns, so errors.Is matches no
	// matter which layer surfaced it.
	ErrClosed = solve.ErrClosed

	// ErrDimension reports a right-hand-side, solution, or batch whose
	// length does not match the plan's system. The facade validates
	// eagerly — a short vector is rejected here instead of faulting deep
	// inside a solve kernel.
	ErrDimension = solve.ErrDimension

	// ErrNotConverged reports an iterative method (krylov.CG) that
	// exhausted its iteration budget before reaching its tolerance.
	ErrNotConverged = errors.New("stsk: iteration did not converge")

	// ErrSparsityMismatch reports a numeric refactorization whose values
	// do not fit the plan's fixed sparsity: a value array of the wrong
	// length, a matrix with a different pattern, or a plan that derives
	// its values (an IC0 factor) rather than carrying the input's.
	// Refactor reuses every piece of symbolic work, so it can only accept
	// new values for exactly the pattern the plan was built from.
	ErrSparsityMismatch = errors.New("stsk: sparsity mismatch")

	// ErrTooLarge reports a factor whose dimension or stored-entry count
	// does not fit the 32-bit indices of the packed solve kernels. Build
	// and ReadSnapshot refuse such a factor up front, so every Plan can be
	// solved.
	ErrTooLarge = sparse.ErrTooLarge

	// ErrNonFinite reports a factor value that is NaN or infinite. Build,
	// ReadSnapshot and Refactor refuse such values before anything is
	// published, and so does IC0 for a factor whose elimination
	// overflows: one would spread through every row of the solution that
	// depends on it. The serving layer maps it to HTTP 422, and answers
	// a solve whose solution overflows with it too. krylov.CG refuses
	// with it a right-hand side whose norm is NaN or infinite, and stops
	// with it at the first iteration whose pᵀA′p, ‖r‖² or rᵀz is, rather
	// than iterating to its budget.
	ErrNonFinite = solve.ErrNonFinite

	// ErrInternal reports a panic contained at an engine job boundary: a
	// kernel (or anything it called) panicked and the recover barrier
	// converted it into an error carrying the captured stack. The solve
	// that hit it failed, its batch-mates are unharmed, and the Solver
	// stays fully usable. The serving layer maps it to HTTP 500 and the
	// stsserve_panics_recovered_total metric.
	ErrInternal = panicsafe.ErrInternal
)

// dimErr details a two-vector length mismatch against the system size.
func dimErr(zlen, rlen, n int) error {
	return fmt.Errorf("%w: vector lengths %d/%d, want %d", ErrDimension, zlen, rlen, n)
}
