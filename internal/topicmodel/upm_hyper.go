package topicmodel

import (
	"math"

	"repro/internal/numeric"
)

// optimizeHyperparameters runs the paper's Eqs. 25–27: maximize the
// complete log-likelihood in α (document mixtures), each β_k (word
// priors) and each δ_k (URL priors) with L-BFGS, in log-space to keep
// the vectors positive (the paper's L-BFGS-B reference [30]).
func (m *UPM) optimizeHyperparameters() {
	opt := numeric.LBFGS{MaxIter: m.cfg.HyperIters}

	// --- α (Eq. 25): Dirichlet-multinomial over session-topic counts.
	alphaObj := func(alpha, grad []float64) float64 {
		v := 0.0
		sumA := numeric.Sum(alpha)
		for k := range grad {
			grad[k] = 0
		}
		for d := range m.ndk {
			nd := m.ndkSum[d]
			v += numeric.Lgamma(sumA) - numeric.Lgamma(sumA+nd)
			dig := numeric.Digamma(sumA) - numeric.Digamma(sumA+nd)
			for k := 0; k < m.cfg.K; k++ {
				c := m.ndk[d][k]
				v += numeric.Lgamma(alpha[k]+c) - numeric.Lgamma(alpha[k])
				grad[k] += numeric.Digamma(alpha[k]+c) - numeric.Digamma(alpha[k]) + dig
			}
		}
		return v
	}
	if a, _, err := opt.MaximizePositive(alphaObj, m.alpha); err == nil || err == numeric.ErrLineSearch {
		copy(m.alpha, a)
	}

	// --- β_k (Eq. 26) and δ_k (Eq. 27): per-topic priors of the
	// per-document emission Dirichlets. The counts are read as CSR with
	// ascending ids, so the objective sums in a fixed order.
	words := newPriorCounts(m.nkwd, m.nkwdSum, m.cfg.K)
	urls := newPriorCounts(m.nkud, m.nkudSum, m.cfg.K)
	for k := 0; k < m.cfg.K; k++ {
		optimizeEmissionPrior(opt, m.betaPrior[k], words, k)
		if m.u > 0 {
			optimizeEmissionPrior(opt, m.deltaPrior[k], urls, k)
		}
		m.betaSum[k] = numeric.Sum(m.betaPrior[k])
		m.deltaSum[k] = numeric.Sum(m.deltaPrior[k])
	}
}

// priorCounts holds every document's per-topic emission counts for the
// prior objectives: CSR rows r = d*K + k with ascending ids.
type priorCounts struct {
	k    int
	ptr  []int64
	idx  []int64
	val  []float64
	sums [][]float64 // [d][k] row totals
}

func newPriorCounts(counts [][]map[int]float64, sums [][]float64, k int) priorCounts {
	ptr, idx, val := flattenCounts(counts, k)
	return priorCounts{k: k, ptr: ptr, idx: idx, val: val, sums: sums}
}

// optimizeEmissionPrior maximizes Σ_d [ log DirMult(C_k·d | prior) ] in
// topic k's prior vector (β_k for word counts, δ_k for URL counts).
func optimizeEmissionPrior(opt numeric.LBFGS, prior []float64, counts priorCounts, k int) {
	// Gamma(a0, b0) prior on every coordinate (MAP instead of bare MLE):
	// the likelihood alone is maximized by driving coordinates of words
	// unseen in any document toward 0 and perfectly-consistent ones
	// toward +∞, both of which destroy held-out prediction. The prior's
	// log term repels 0 and the rate term caps growth. See DESIGN.md.
	const gammaShape, gammaRate = 1.05, 0.05
	obj := func(p, grad []float64) float64 {
		v := 0.0
		sumP := numeric.Sum(p)
		lgSumP := numeric.Lgamma(sumP)
		digSumP := numeric.Digamma(sumP)
		for i := range grad {
			v += (gammaShape-1)*math.Log(p[i]) - gammaRate*p[i]
			grad[i] = (gammaShape-1)/p[i] - gammaRate
		}
		// Gradient terms that touch every coordinate are accumulated
		// once per document; per-word terms only touch observed words.
		commonGrad := 0.0
		for d, sums := range counts.sums {
			if sums[k] == 0 {
				continue // document contributes Γ-ratios that cancel
			}
			v += lgSumP - numeric.Lgamma(sumP+sums[k])
			commonGrad += digSumP - numeric.Digamma(sumP+sums[k])
			r := d*counts.k + k
			for i := counts.ptr[r]; i < counts.ptr[r+1]; i++ {
				w, c := counts.idx[i], counts.val[i]
				v += numeric.Lgamma(p[w]+c) - numeric.Lgamma(p[w])
				grad[w] += numeric.Digamma(p[w]+c) - numeric.Digamma(p[w])
			}
		}
		for i := range grad {
			grad[i] += commonGrad
		}
		return v
	}
	if p, _, err := opt.MaximizePositive(obj, prior); err == nil || err == numeric.ErrLineSearch {
		copy(prior, p)
	}
}
