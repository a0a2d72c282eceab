package topicmodel

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/numeric"
)

// UPM is the paper's User Profiling Model (Section V-A, Algorithm 2):
//
//   - each user document d has a topic mixture θ_d ~ Dir(α);
//   - every SESSION draws one topic z ~ Mult(θ_d) — words and URLs in a
//     session are generated from the same topic;
//   - words come from per-document, per-topic multinomials
//     φ_kd ~ Dir(β_k) and URLs from Ω_kd ~ Dir(δ_k): the priors β_k, δ_k
//     are LEARNED vectors that carry the global topic content (the role
//     LDA's φ plays) while the per-document counts capture each user's
//     idiosyncratic word/URL usage (the "Toyota vs Ford" effect);
//   - session timestamps come from per-topic Beta(τ_k) distributions
//     (web dynamics, as in Topics-over-Time).
//
// Inference alternates collapsed Gibbs sampling of session topics
// (Eq. 23) with hyperparameter optimization of α, β, δ by L-BFGS on the
// complete likelihood (Eqs. 25–27) and method-of-moments Beta updates
// (Eqs. 28–29).
type UPM struct {
	cfg  UPMConfig
	v, u int
	// alpha[k], betaPrior[k][w], deltaPrior[k][u] are the learned
	// hyperparameters.
	alpha      []float64
	betaPrior  [][]float64
	deltaPrior [][]float64
	betaSum    []float64 // Σ_w betaPrior[k][w]
	deltaSum   []float64 // Σ_u deltaPrior[k][u]
	// tau[k] are the per-topic Beta(τ_k1, τ_k2) timestamp parameters.
	tau [][2]float64
	// Counts: sessions per doc-topic; words/URLs per topic-doc.
	ndk     [][]float64         // [d][k] session counts C_dk
	ndkSum  []float64           // sessions per doc
	nkwd    [][]map[int]float64 // [d][k] word counts C_kwd (sparse)
	nkwdSum [][]float64         // [d][k] total word tokens
	nkud    [][]map[int]float64 // [d][k] URL counts C_kud (sparse)
	nkudSum [][]float64         // [d][k] total URL tokens
	docID   map[string]int

	// flat, when non-nil, is the arena-backed read-only form (see
	// flat.go): the map/slice fields above are empty and every serving
	// accessor reads the flat arrays instead. Mutation paths thaw first.
	flat *upmFlat
}

// UPMConfig tunes UPM training.
type UPMConfig struct {
	// K is the topic count (default 10).
	K int
	// Iterations is the number of Gibbs sweeps (default 100).
	Iterations int
	// InitAlpha, InitBeta, InitDelta initialize the hyperparameters
	// (defaults 2, 0.1, 0.1 — user documents have few sessions, so a
	// small α keeps profiles from smearing). They are subsequently
	// learned when HyperRounds > 0.
	InitAlpha, InitBeta, InitDelta float64
	// HyperRounds is how many hyperparameter-optimization rounds are
	// interleaved with sampling (default 2: midway and at the end; 0
	// disables learning, degenerating to fixed symmetric priors).
	HyperRounds int
	// HyperIters bounds each L-BFGS run (default 15).
	HyperIters int
	// Seed drives the sampler.
	Seed int64
	// Workers is stored with the model but governs nothing: TrainUPM
	// always fans the per-document sweep out over runtime.GOMAXPROCS(0)
	// goroutines, with results identical at any count.
	//
	// Deprecated: leave unset.
	Workers int
}

func (c UPMConfig) withDefaults() UPMConfig {
	if c.K <= 0 {
		c.K = 10
	}
	if c.Iterations <= 0 {
		c.Iterations = 100
	}
	if c.InitAlpha <= 0 {
		c.InitAlpha = 2
	}
	if c.InitBeta <= 0 {
		c.InitBeta = 0.1
	}
	if c.InitDelta <= 0 {
		c.InitDelta = 0.1
	}
	if c.HyperRounds < 0 {
		c.HyperRounds = 0
	} else if c.HyperRounds == 0 {
		c.HyperRounds = 2
	}
	if c.HyperIters <= 0 {
		c.HyperIters = 15
	}
	if c.Workers <= 0 {
		c.Workers = 1 // only stored: the saved upm-config section carries it
	}
	return c
}

// TrainUPM fits the UPM on the corpus. Unlike LDA — whose topic–word
// counts are global, making parallel Gibbs approximate (the paper's
// [31]) — every UPM count structure is per-document, so the sweep's
// document loop is EXACTLY parallel given the sweep's fixed
// hyperparameters. TrainUPM fans it out over runtime.GOMAXPROCS(0)
// goroutines; the result is bit-identical at any count because every
// document samples from its own deterministic RNG stream and
// hyperparameters change only at sweep barriers.
func TrainUPM(c *Corpus, cfg UPMConfig) *UPM {
	m, _ := trainUPM(c, cfg, runtime.GOMAXPROCS(0))
	return m
}

// trainUPM is TrainUPM with an explicit fan-out; it also returns the
// final session-topic assignments z[d][s].
func trainUPM(c *Corpus, cfg UPMConfig, workers int) (*UPM, [][]int) {
	cfg = cfg.withDefaults()
	m := newUPM(c, cfg)

	// Per-document RNG streams: the sampling of document d is a pure
	// function of (seed, d, corpus), independent of worker scheduling.
	docRngs := make([]*rand.Rand, len(c.Docs))
	docs := make([]*gibbsDoc, len(c.Docs))
	z := make([][]int, len(c.Docs))
	for d, doc := range c.Docs {
		docRngs[d] = rand.New(rand.NewSource(cfg.Seed<<20 + int64(d)))
		g := newGibbsDoc(doc.Sessions, cfg.K)
		for s := range g.z {
			k := docRngs[d].Intn(cfg.K)
			g.z[s] = k
			g.add(s, k, 1)
		}
		docs[d], z[d] = g, g.z
	}

	hyperAt := make(map[int]bool)
	for r := 1; r <= cfg.HyperRounds; r++ {
		hyperAt[cfg.Iterations*r/cfg.HyperRounds-1] = true
	}
	if workers < 1 || len(docs) < 2*workers {
		workers = 1
	}
	logws := make([][]float64, workers)
	for w := range logws {
		logws[w] = make([]float64, cfg.K)
	}
	p := m.gibbsPriors()
	samples := make([][]float64, cfg.K)
	for it := 0; it < cfg.Iterations; it++ {
		if workers == 1 {
			for d, g := range docs {
				g.sweep(p, docRngs[d], logws[0])
			}
		} else {
			var wg sync.WaitGroup
			var next atomic.Int64
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(logw []float64) {
					defer wg.Done()
					for {
						d := int(next.Add(1) - 1)
						if d >= len(docs) {
							return
						}
						docs[d].sweep(p, docRngs[d], logw)
					}
				}(logws[w])
			}
			wg.Wait()
		}
		m.refitTau(c, z, samples)
		p.refresh()
		if hyperAt[it] || it == cfg.Iterations-1 {
			// The hyperparameter objectives read the published counts.
			for d, g := range docs {
				g.publish(m, d)
			}
		}
		if hyperAt[it] {
			m.optimizeHyperparameters()
		}
	}
	return m, z
}

// newUPM returns a model with initial hyperparameters and one document
// slot per corpus document; the per-document counts are left for the
// sampler to publish.
func newUPM(c *Corpus, cfg UPMConfig) *UPM {
	m := &UPM{
		cfg: cfg, v: c.V(), u: c.U(),
		alpha:      make([]float64, cfg.K),
		betaPrior:  make([][]float64, cfg.K),
		deltaPrior: make([][]float64, cfg.K),
		betaSum:    make([]float64, cfg.K),
		deltaSum:   make([]float64, cfg.K),
		tau:        make([][2]float64, cfg.K),
		ndk:        make([][]float64, len(c.Docs)),
		ndkSum:     make([]float64, len(c.Docs)),
		nkwd:       make([][]map[int]float64, len(c.Docs)),
		nkwdSum:    make([][]float64, len(c.Docs)),
		nkud:       make([][]map[int]float64, len(c.Docs)),
		nkudSum:    make([][]float64, len(c.Docs)),
		docID:      make(map[string]int, len(c.Docs)),
	}
	for k := 0; k < cfg.K; k++ {
		m.alpha[k] = cfg.InitAlpha
		m.betaPrior[k] = make([]float64, m.v)
		m.deltaPrior[k] = make([]float64, m.u)
		for w := range m.betaPrior[k] {
			m.betaPrior[k][w] = cfg.InitBeta
		}
		for u := range m.deltaPrior[k] {
			m.deltaPrior[k][u] = cfg.InitDelta
		}
		m.betaSum[k] = cfg.InitBeta * float64(m.v)
		m.deltaSum[k] = cfg.InitDelta * float64(m.u)
		m.tau[k] = [2]float64{1, 1}
	}
	for d, doc := range c.Docs {
		m.docID[doc.UserID] = d
	}
	return m
}

// refitTau re-estimates τ_k (Eqs. 28–29) from the timestamps of
// sessions currently on topic k. samples is per-topic scratch (K
// slices, reused across calls).
func (m *UPM) refitTau(c *Corpus, z [][]int, samples [][]float64) {
	for k := range samples {
		samples[k] = samples[k][:0]
	}
	for d, doc := range c.Docs {
		for s := range doc.Sessions {
			k := z[d][s]
			samples[k] = append(samples[k], doc.Sessions[s].Time)
		}
	}
	for k := range samples {
		if len(samples[k]) < 2 {
			m.tau[k] = [2]float64{1, 1}
			continue
		}
		a, b := numeric.FitBetaMoments(numeric.Mean(samples[k]), numeric.Variance(samples[k]))
		m.tau[k] = [2]float64{a, b}
	}
}

// Name implements Model.
func (m *UPM) Name() string { return "UPM" }

// K implements Model.
func (m *UPM) K() int { return m.cfg.K }

// NumDocs returns the number of trained user documents.
func (m *UPM) NumDocs() int {
	if f := m.flat; f != nil {
		return f.d
	}
	return len(m.ndk)
}

// DocOf returns the document index of a user ID.
func (m *UPM) DocOf(userID string) (int, bool) {
	if f := m.flat; f != nil {
		return f.docs.Lookup(userID)
	}
	d, ok := m.docID[userID]
	return d, ok
}

// Theta returns the user's topic profile θ_d (Eq. 30).
func (m *UPM) Theta(d int) []float64 {
	theta := make([]float64, m.cfg.K)
	if f := m.flat; f != nil {
		denom := f.ndkSum[d] + numeric.Sum(f.alpha)
		for k := range theta {
			theta[k] = (f.ndk[d*f.k+k] + f.alpha[k]) / denom
		}
		return theta
	}
	denom := m.ndkSum[d] + numeric.Sum(m.alpha)
	for k := range theta {
		theta[k] = (m.ndk[d][k] + m.alpha[k]) / denom
	}
	return theta
}

// WordProb returns the posterior-mean per-user topic–word probability
// p(w | k, d) = (C_kwd + β_kw) / (C_k·d + Σβ_k): the user's own usage
// smoothed toward the globally learned topic content.
func (m *UPM) WordProb(d, k, w int) float64 {
	if f := m.flat; f != nil {
		r := d*f.k + k
		return (csrAt(f.nkwdPtr, f.nkwdIdx, f.nkwdVal, r, w) + f.betaPrior[k*f.v+w]) /
			(f.nkwdSum[r] + f.betaSum[k])
	}
	return (m.nkwd[d][k][w] + m.betaPrior[k][w]) / (m.nkwdSum[d][k] + m.betaSum[k])
}

// PriorWordProb returns the prior-mean word probability β_kw / Σβ_k —
// the literal B(n+β)/B(β) factor of the paper's Eq. 31 for a
// single-occurrence word.
func (m *UPM) PriorWordProb(k, w int) float64 {
	if f := m.flat; f != nil {
		return f.betaPrior[k*f.v+w] / f.betaSum[k]
	}
	return m.betaPrior[k][w] / m.betaSum[k]
}

// URLProb returns the posterior-mean per-user topic–URL probability.
func (m *UPM) URLProb(d, k, u int) float64 {
	if f := m.flat; f != nil {
		r := d*f.k + k
		return (csrAt(f.nkudPtr, f.nkudIdx, f.nkudVal, r, u) + f.deltaPrior[k*f.u+u]) /
			(f.nkudSum[r] + f.deltaSum[k])
	}
	return (m.nkud[d][k][u] + m.deltaPrior[k][u]) / (m.nkudSum[d][k] + m.deltaSum[k])
}

// Tau returns topic k's Beta timestamp parameters.
func (m *UPM) Tau(k int) (a, b float64) {
	if f := m.flat; f != nil {
		return f.tau[2*k], f.tau[2*k+1]
	}
	return m.tau[k][0], m.tau[k][1]
}

// Alpha returns the learned document-mixture hyperparameters.
func (m *UPM) Alpha() []float64 {
	if f := m.flat; f != nil {
		return numeric.Clone(f.alpha)
	}
	return numeric.Clone(m.alpha)
}

// TopWords returns the n highest-probability word IDs of topic k under
// the LEARNED global prior β_k (the shared topic content), most
// probable first — the standard topic-interpretation view.
func (m *UPM) TopWords(k, n int) []int {
	if f := m.flat; f != nil {
		return numeric.TopK(f.betaPrior[k*f.v:(k+1)*f.v], n)
	}
	return numeric.TopK(m.betaPrior[k], n)
}

// TopWordsFor returns the n words of topic k the USER d emphasizes
// most, by posterior probability — the per-user view of the same topic
// (the "Toyota vs Ford" lens).
func (m *UPM) TopWordsFor(d, k, n int) []int {
	scores := make([]float64, m.v)
	for w := range scores {
		scores[w] = m.WordProb(d, k, w)
	}
	return numeric.TopK(scores, n)
}

// PredictiveWordProb implements Model.
func (m *UPM) PredictiveWordProb(d, w int) float64 {
	if d >= m.NumDocs() || w >= m.v {
		return 1e-12
	}
	theta := m.Theta(d)
	return mixturePredictive(theta, func(k int) float64 { return m.WordProb(d, k, w) })
}
