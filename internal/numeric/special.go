// Package numeric provides the dense numerical substrate for PQS-DA:
// vector helpers, special functions (log-gamma ratios, digamma, Beta
// densities), a method-of-moments Beta fitter for the UPM's temporal
// distributions (paper Eqs. 28–29) and a limited-memory BFGS optimizer
// for the UPM hyperparameter updates (paper Eqs. 25–27).
package numeric

import (
	"fmt"
	"math"
)

// Lgamma returns log Γ(x) for x > 0. It panics on non-positive input,
// which in this codebase always indicates a broken count or prior.
func Lgamma(x float64) float64 {
	if x <= 0 {
		panic(fmt.Sprintf("numeric: Lgamma of non-positive %v", x))
	}
	v, _ := math.Lgamma(x)
	return v
}

// Digamma returns ψ(x) = d/dx log Γ(x) for x > 0, via the standard
// recurrence-plus-asymptotic-series method (accurate to ~1e-12 for the
// ranges topic-model hyperparameters live in).
func Digamma(x float64) float64 {
	if x <= 0 {
		panic(fmt.Sprintf("numeric: Digamma of non-positive %v", x))
	}
	result := 0.0
	for x < 6 {
		result -= 1 / x
		x++
	}
	// Asymptotic series ψ(x) ≈ ln x − 1/(2x) − Σ B₂ₙ/(2n·x^{2n}).
	inv := 1 / x
	inv2 := inv * inv
	result += math.Log(x) - 0.5*inv
	result -= inv2 * (1.0/12 - inv2*(1.0/120-inv2*(1.0/252-inv2*(1.0/240-inv2/132))))
	return result
}

// LogBeta returns log B(a, b) = log Γ(a) + log Γ(b) − log Γ(a+b).
func LogBeta(a, b float64) float64 {
	return Lgamma(a) + Lgamma(b) - Lgamma(a+b)
}

// LogMultiBeta returns the log of the multidimensional Beta function
// B(v) = Π Γ(vᵢ) / Γ(Σ vᵢ), the normalizer of the Dirichlet distribution.
// This appears in the UPM preference score (paper Eq. 31).
func LogMultiBeta(v []float64) float64 {
	sum := 0.0
	lg := 0.0
	for _, x := range v {
		sum += x
		lg += Lgamma(x)
	}
	return lg - Lgamma(sum)
}

// BetaLogPDF returns the log density of Beta(a, b) at t ∈ (0, 1).
// Endpoints are clamped to avoid −Inf in timestamp likelihoods (the UPM
// rescales timestamps into (0,1) but test sets can touch the bounds).
func BetaLogPDF(t, a, b float64) float64 {
	logT, log1mT := BetaLogArgs(t)
	return BetaLogPDFFrom(logT, log1mT, a, b, LogBeta(a, b))
}

// BetaLogArgs returns log t and log(1−t) with t clamped as BetaLogPDF
// clamps it: the per-point half of the density, which a sampler
// scoring one timestamp under many (a, b) computes once.
func BetaLogArgs(t float64) (logT, log1mT float64) {
	const eps = 1e-9
	if t < eps {
		t = eps
	}
	if t > 1-eps {
		t = 1 - eps
	}
	return math.Log(t), math.Log(1 - t)
}

// BetaLogPDFFrom assembles BetaLogPDF(t, a, b) from BetaLogArgs(t) and
// LogBeta(a, b) with the same floating-point operations, so the result
// is bit-identical to BetaLogPDF.
func BetaLogPDFFrom(logT, log1mT, a, b, logBeta float64) float64 {
	return (a-1)*logT + (b-1)*log1mT - logBeta
}

// BetaPDF returns the density of Beta(a, b) at t.
func BetaPDF(t, a, b float64) float64 { return math.Exp(BetaLogPDF(t, a, b)) }

// FitBetaMoments fits Beta parameters by the method of moments from a
// sample mean and biased sample variance, exactly as the paper's
// Eqs. 28–29 prescribe for the UPM's per-topic timestamp distributions:
//
//	τ₁ = m·(m(1−m)/s² − 1),  τ₂ = (1−m)·(m(1−m)/s² − 1).
//
// Degenerate inputs (zero/overlarge variance, mean at the boundary) fall
// back to a flat Beta(1,1)-leaning fit so sampling code never receives
// invalid parameters.
func FitBetaMoments(mean, variance float64) (a, b float64) {
	const eps = 1e-6
	if mean < eps {
		mean = eps
	}
	if mean > 1-eps {
		mean = 1 - eps
	}
	maxVar := mean * (1 - mean)
	if variance <= 0 || variance >= maxVar {
		// Not enough signal: keep the mean but use a gentle concentration.
		c := 2.0
		return mean * c, (1 - mean) * c
	}
	common := mean*(1-mean)/variance - 1
	a = mean * common
	b = (1 - mean) * common
	if a < eps {
		a = eps
	}
	if b < eps {
		b = eps
	}
	return a, b
}

// LogSumExp returns log Σ exp(xᵢ) computed stably. It returns −Inf for an
// empty slice.
func LogSumExp(x []float64) float64 {
	if len(x) == 0 {
		return math.Inf(-1)
	}
	max := x[0]
	for _, v := range x[1:] {
		if v > max {
			max = v
		}
	}
	if math.IsInf(max, -1) {
		return max
	}
	s := 0.0
	for _, v := range x {
		s += math.Exp(v - max)
	}
	return max + math.Log(s)
}
