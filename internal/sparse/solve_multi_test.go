package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// rhsFor builds k right-hand sides for an n-dim system, including a
// zero vector and a duplicate so the lane-retirement and shared-SpMM
// paths see degenerate lanes.
func rhsFor(rng *rand.Rand, n, k int) [][]float64 {
	b := make([][]float64, k)
	for j := range b {
		b[j] = make([]float64, n)
		for i := range b[j] {
			b[j][i] = rng.NormFloat64()
		}
	}
	if k >= 3 {
		for i := range b[1] {
			b[1][i] = 0 // zero RHS: retired before the first iteration
		}
		copy(b[2], b[0]) // duplicate lane
	}
	return b
}

// The float64 blocked solver must be BIT-identical to per-column
// SolveCG: same preconditioner, same update order, dots accumulated in
// the same order. This is the contract that lets the batch path replace
// the single path without any behavioral drift.
func TestSolveCGMultiBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 3, 8} {
		for trial := 0; trial < 5; trial++ {
			n := 5 + rng.Intn(40)
			a := spdMatrix(rng, n)
			b := rhsFor(rng, n, k)
			opts := SolveOptions{Tol: 1e-10}

			xs, stats, err := SolveCGMulti(a, b, nil, opts)
			if err != nil {
				t.Fatalf("k=%d n=%d: %v", k, n, err)
			}
			for j := range b {
				var st SolveStats
				sopts := opts
				sopts.Stats = &st
				ref, iters, serr := SolveCG(a, b[j], nil, sopts)
				if serr != nil {
					t.Fatalf("reference solve %d failed: %v", j, serr)
				}
				if stats[j].Iterations != iters {
					t.Errorf("k=%d lane %d: %d iterations, SolveCG took %d", k, j, stats[j].Iterations, iters)
				}
				for i := range ref {
					if math.Float64bits(xs[j][i]) != math.Float64bits(ref[i]) {
						t.Fatalf("k=%d lane %d x[%d]: %x (%v) != SolveCG %x (%v)",
							k, j, i, math.Float64bits(xs[j][i]), xs[j][i], math.Float64bits(ref[i]), ref[i])
					}
				}
				if stats[j].Residual != st.Residual {
					t.Errorf("k=%d lane %d residual %v != %v", k, j, stats[j].Residual, st.Residual)
				}
			}
		}
	}
}

// Caller-provided dst of the right shape must be reused, not replaced —
// the steady-state allocation contract of the batch serving path.
func TestSolveCGMultiReusesDst(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 24
	a := spdMatrix(rng, n)
	b := rhsFor(rng, n, 4)
	dst := make([][]float64, len(b))
	for j := range dst {
		dst[j] = make([]float64, n)
	}
	heads := make([]*float64, len(dst))
	for j := range dst {
		heads[j] = &dst[j][0]
	}
	out, _, err := SolveCGMulti(a, b, dst, SolveOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	for j := range dst {
		if &out[j][0] != heads[j] {
			t.Fatalf("lane %d: dst was reallocated", j)
		}
	}
}

// The blocked kernel must be deterministic in the worker count, like
// MulVecParallel: row partitioning never reorders per-row accumulation.
func TestSolveCGMultiWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 120
	a := spdMatrix(rng, n)
	b := rhsFor(rng, n, 6)
	seq, _, err := SolveCGMulti(a, b, nil, SolveOptions{Tol: 1e-10, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := SolveCGMulti(a, b, nil, SolveOptions{Tol: 1e-10, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for j := range b {
		for i := range seq[j] {
			if math.Float64bits(seq[j][i]) != math.Float64bits(par[j][i]) {
				t.Fatalf("lane %d x[%d]: workers=4 diverged from workers=1", j, i)
			}
		}
	}
}
