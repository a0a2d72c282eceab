package sparse

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/obs"
)

// ErrNoConvergence is returned by the iterative solvers when the residual
// target is not reached within the iteration budget.
var ErrNoConvergence = errors.New("sparse: solver did not converge")

// SolveOptions tunes the iterative solvers.
type SolveOptions struct {
	// Tol is the relative residual target ‖Ax−b‖₂/‖b‖₂. Zero means 1e-10.
	Tol float64
	// MaxIter bounds the number of iterations. Zero means 4·n.
	MaxIter int
	// Workers parallelizes the per-iteration mat-vec across row ranges
	// (≤1 means sequential) — the paper's "parallelized ... scales to
	// much larger datasets" remark for the Eq. 15 solver. Results are
	// bit-identical to the sequential solve.
	Workers int
	// Precision is read by nothing: every solve runs in float64.
	//
	// Deprecated: leave unset.
	Precision Precision
	// Stats, when non-nil, is filled with the solve's convergence
	// telemetry on return (iterations, final relative residual,
	// convergence). It exists so callers can surface solver internals
	// without widening the return signature.
	Stats *SolveStats
}

// SolveStats is one solve's convergence telemetry.
type SolveStats struct {
	// Iterations is the number of CG iterations run.
	Iterations int
	// Residual is the final RELATIVE residual ‖Ax−b‖₂/‖b‖₂ (0 for a
	// zero right-hand side).
	Residual float64
	// Converged reports the residual target was reached within the
	// iteration budget.
	Converged bool
}

func (o SolveOptions) withDefaults(n int) SolveOptions {
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 4 * n
		if o.MaxIter < 64 {
			o.MaxIter = 64
		}
	}
	return o
}

// SolveCG solves A x = b for a symmetric positive-definite A using the
// conjugate-gradient method with Jacobi (diagonal) preconditioning. This
// is the workhorse behind the paper's Eq. 15: the coefficient matrix
// (1+Σα)I − Σα·L^X is SPD for the α ranges PQS-DA uses, and CG's cost per
// iteration is linear in nnz, matching the Spielman–Teng "nearly-linear"
// bound the paper cites in spirit.
//
// x0 may be nil (start from zero). It returns the solution and the number
// of iterations used.
func SolveCG(a *Matrix, b, x0 []float64, opts SolveOptions) ([]float64, int, error) {
	return SolveCGCtx(context.Background(), a, b, x0, opts)
}

// SolveCGCtx is SolveCG with request-scoped cancellation: the context is
// checked once per iteration (each iteration is one mat-vec, so the
// check granularity is O(nnz) work). On cancellation it returns the
// iterate reached so far together with ctx.Err(), so callers can report
// partial progress — this is what bounds a slow Eq. 15 solve under a
// serving deadline.
//
// The solve is observable: when the context carries an obs trace it
// records a "cg_solve" span with iteration count, final relative
// residual and convergence as attributes, and when it carries a metric
// sink it feeds the iteration-depth and residual histograms. Both are
// no-ops otherwise.
func SolveCGCtx(ctx context.Context, a *Matrix, b, x0 []float64, opts SolveOptions) ([]float64, int, error) {
	sp := obs.StartSpan(ctx, "cg_solve")
	x, iters, rel, err := solveCG(ctx, a, b, x0, opts)
	if sp != nil {
		sp.SetAttr("n", a.Rows())
		sp.SetAttr("iterations", iters)
		sp.SetAttr("residual", rel)
		sp.SetAttr("converged", err == nil)
		sp.End()
	}
	obs.Observe(ctx, obs.MetricCGIterations, float64(iters))
	obs.Observe(ctx, obs.MetricCGResidual, rel)
	if opts.Stats != nil {
		*opts.Stats = SolveStats{Iterations: iters, Residual: rel, Converged: err == nil}
	}
	return x, iters, err
}

// cgScratch holds one solve's work vectors. A cache-miss suggestion
// request runs exactly one Eq. 15 solve, which used to allocate six
// n-vectors; pooling them turns that into per-process, not per-request,
// garbage. The solution vector x is NOT pooled — it is returned to the
// caller.
type cgScratch struct {
	minv, r, z, p, ap []float64
}

var cgPool = sync.Pool{New: func() any { return new(cgScratch) }}

// resize readies every work vector for an n×n solve, reallocating only
// when the pooled capacity is insufficient.
func (s *cgScratch) resize(n int) {
	if cap(s.minv) < n {
		s.minv = make([]float64, n)
		s.r = make([]float64, n)
		s.z = make([]float64, n)
		s.p = make([]float64, n)
		s.ap = make([]float64, n)
		return
	}
	s.minv = s.minv[:n]
	s.r = s.r[:n]
	s.z = s.z[:n]
	s.p = s.p[:n]
	s.ap = s.ap[:n]
}

// solveCG is the CG core; it additionally reports the final relative
// residual for the telemetry wrapper above.
func solveCG(ctx context.Context, a *Matrix, b, x0 []float64, opts SolveOptions) ([]float64, int, float64, error) {
	n := a.Rows()
	if a.Cols() != n {
		panic(fmt.Sprintf("sparse: SolveCG needs a square matrix, got %dx%d", a.Rows(), a.Cols()))
	}
	if len(b) != n {
		panic(fmt.Sprintf("sparse: SolveCG rhs length %d != %d", len(b), n))
	}
	opts = opts.withDefaults(n)

	scratch := cgPool.Get().(*cgScratch)
	defer cgPool.Put(scratch)
	scratch.resize(n)

	x := make([]float64, n)
	if x0 != nil {
		copy(x, x0)
	}
	// Jacobi preconditioner: inverse diagonal (guard zero diagonals).
	minv := scratch.minv
	for i := 0; i < n; i++ {
		d := a.At(i, i)
		if d == 0 {
			d = 1
		}
		minv[i] = 1 / d
	}

	r := scratch.r // residual b − A x
	ax := a.MulVec(x, scratch.ap)
	for i := range r {
		r[i] = b[i] - ax[i]
	}
	z := scratch.z
	for i := range z {
		z[i] = minv[i] * r[i]
	}
	p := scratch.p
	copy(p, z)
	ap := scratch.ap

	nb := norm2(b)
	if nb == 0 {
		return x, 0, 0, nil // b = 0 → x = 0 (with x0 correction below)
	}
	rel := norm2(r) / nb // running relative residual, reported on every exit
	rz := dot(r, z)
	for it := 1; it <= opts.MaxIter; it++ {
		if err := ctx.Err(); err != nil {
			return x, it - 1, rel, err
		}
		a.MulVecParallel(p, ap, opts.Workers)
		pap := dot(p, ap)
		if pap == 0 {
			return x, it, rel, ErrNoConvergence
		}
		alpha := rz / pap
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rel = norm2(r) / nb
		if rel <= opts.Tol {
			return x, it, rel, nil
		}
		for i := range z {
			z[i] = minv[i] * r[i]
		}
		rzNew := dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return x, opts.MaxIter, rel, ErrNoConvergence
}

// SolveJacobi solves A x = b with Jacobi iteration. It converges for
// strictly diagonally dominant systems and serves as an independent
// cross-check of SolveCG in tests.
func SolveJacobi(a *Matrix, b []float64, opts SolveOptions) ([]float64, int, error) {
	n := a.Rows()
	if a.Cols() != n {
		panic("sparse: SolveJacobi needs a square matrix")
	}
	if len(b) != n {
		panic("sparse: SolveJacobi rhs length mismatch")
	}
	opts = opts.withDefaults(n)
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = a.At(i, i)
		if d[i] == 0 {
			return nil, 0, fmt.Errorf("sparse: SolveJacobi zero diagonal at %d", i)
		}
	}
	x := make([]float64, n)
	next := make([]float64, n)
	nb := norm2(b)
	if nb == 0 {
		return x, 0, nil
	}
	for it := 1; it <= opts.MaxIter; it++ {
		for r := 0; r < n; r++ {
			s := b[r]
			for i := a.rowPtr[r]; i < a.rowPtr[r+1]; i++ {
				c := a.colIdx[i]
				if c != r {
					s -= a.val[i] * x[c]
				}
			}
			next[r] = s / d[r]
		}
		x, next = next, x
		// Residual check.
		ax := a.MulVec(x, next)
		res := 0.0
		for i := range ax {
			diff := ax[i] - b[i]
			res += diff * diff
		}
		if math.Sqrt(res)/nb <= opts.Tol {
			return x, it, nil
		}
	}
	return x, opts.MaxIter, ErrNoConvergence
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func norm2(a []float64) float64 {
	return math.Sqrt(dot(a, a))
}
