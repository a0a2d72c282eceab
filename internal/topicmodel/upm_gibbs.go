package topicmodel

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/numeric"
)

// The UPM Gibbs kernel (Eq. 23) shared by TrainUPM and FoldIn. A user
// document is tokenized once into flat word/URL token slices, and its
// (topic × word) and (topic × URL) counts live in dense blocks over
// the document's sorted local vocabulary while it is sampled, so a
// sweep allocates nothing and indexes arrays instead of maps. The
// published model keeps its map form (see gibbsDoc.publish).
//
// Every log-ratio is evaluated with the operands and in the order of
// the textbook sequential Dirichlet-multinomial conditional,
//
//	(C_kwd + bump) + β_kw  over  (running C_k·d) + Σβ_k,
//
// so each floating-point operation — and therefore every sampled
// assignment — is the one a map-based evaluation performs. The
// within-session bump of a token (how often its id occurred earlier in
// the same session) depends only on its position, so it is computed at
// tokenization.

// gibbsToken is one word or URL occurrence of a tokenized session.
type gibbsToken struct {
	local  int32   // index into the document's local vocabulary
	global int32   // corpus-wide id: the column of β or δ
	rep    float64 // occurrences of the same id earlier in the session
}

// gibbsDoc is one user document tokenized for the kernel, together
// with its dense count state and session-topic assignments.
type gibbsDoc struct {
	// Session s owns words[wOff[s]:wOff[s+1]] and urls[uOff[s]:uOff[s+1]].
	words, urls []gibbsToken
	wOff, uOff  []int32
	// logT, log1mT are BetaLogArgs of each session's timestamp.
	logT, log1mT []float64
	// vocabW, vocabU map local ids to corpus ids, ascending.
	vocabW, vocabU []int32

	z      []int     // session topics
	ndk    []float64 // K session counts C_dk
	ndkSum float64
	nkw    []float64 // K*len(vocabW): C_kwd at [k*len(vocabW)+local]
	nkwSum []float64 // K
	nku    []float64 // K*len(vocabU): C_kud
	nkuSum []float64 // K
}

// newGibbsDoc tokenizes sessions (every word id in [0, V), every URL id
// in [0, U) or NoURL) for a K-topic model with all counts zero.
func newGibbsDoc(sessions []Session, k int) *gibbsDoc {
	g := &gibbsDoc{
		wOff:   make([]int32, 1, len(sessions)+1),
		uOff:   make([]int32, 1, len(sessions)+1),
		logT:   make([]float64, len(sessions)),
		log1mT: make([]float64, len(sessions)),
		z:      make([]int, len(sessions)),
		ndk:    make([]float64, k),
		nkwSum: make([]float64, k),
		nkuSum: make([]float64, k),
	}
	nw, nu := 0, 0
	for _, sess := range sessions {
		for _, e := range sess.Events {
			nw += len(e.Words)
			if e.URL != NoURL {
				nu++
			}
		}
	}
	g.words = make([]gibbsToken, 0, nw)
	g.urls = make([]gibbsToken, 0, nu)
	g.vocabW = make([]int32, 0, nw)
	g.vocabU = make([]int32, 0, nu)
	for _, sess := range sessions {
		for _, e := range sess.Events {
			for _, w := range e.Words {
				g.vocabW = append(g.vocabW, int32(w))
			}
			if e.URL != NoURL {
				g.vocabU = append(g.vocabU, int32(e.URL))
			}
		}
	}
	slices.Sort(g.vocabW)
	g.vocabW = slices.Clip(slices.Compact(g.vocabW))
	slices.Sort(g.vocabU)
	g.vocabU = slices.Clip(slices.Compact(g.vocabU))
	seen := make([]float64, max(len(g.vocabW), len(g.vocabU)))

	for s, sess := range sessions {
		g.logT[s], g.log1mT[s] = numeric.BetaLogArgs(sess.Time)
		start := len(g.words)
		for _, e := range sess.Events {
			for _, w := range e.Words {
				g.words = appendToken(g.words, g.vocabW, int32(w), seen)
			}
		}
		clearSeen(seen, g.words[start:])
		g.wOff = append(g.wOff, int32(len(g.words)))
		start = len(g.urls)
		for _, e := range sess.Events {
			if e.URL != NoURL {
				g.urls = appendToken(g.urls, g.vocabU, int32(e.URL), seen)
			}
		}
		clearSeen(seen, g.urls[start:])
		g.uOff = append(g.uOff, int32(len(g.urls)))
	}
	g.nkw = make([]float64, k*len(g.vocabW))
	g.nku = make([]float64, k*len(g.vocabU))
	return g
}

// appendToken appends id's token; seen counts the session's earlier
// occurrences per local id.
func appendToken(toks []gibbsToken, vocab []int32, id int32, seen []float64) []gibbsToken {
	local, _ := slices.BinarySearch(vocab, id)
	toks = append(toks, gibbsToken{local: int32(local), global: id, rep: seen[local]})
	seen[local]++
	return toks
}

func clearSeen(seen []float64, toks []gibbsToken) {
	for _, t := range toks {
		seen[t.local] = 0
	}
}

// gibbsPriors are the hyperparameters a sweep holds fixed, plus the
// per-topic log B(τ_k) it would otherwise recompute per session.
type gibbsPriors struct {
	alpha, betaSum, deltaSum []float64
	betaPrior, deltaPrior    [][]float64
	tau                      [][2]float64
	logBeta                  []float64
}

// gibbsPriors returns the model's hyperparameters for a sweep. It
// aliases the model's slices, which training updates in place; call
// refresh after τ changes.
func (m *UPM) gibbsPriors() *gibbsPriors {
	p := &gibbsPriors{
		alpha: m.alpha, betaSum: m.betaSum, deltaSum: m.deltaSum,
		betaPrior: m.betaPrior, deltaPrior: m.deltaPrior, tau: m.tau,
		logBeta: make([]float64, len(m.tau)),
	}
	p.refresh()
	return p
}

func (p *gibbsPriors) refresh() {
	for k, t := range p.tau {
		p.logBeta[k] = numeric.LogBeta(t[0], t[1])
	}
}

// add moves session s onto (delta = 1) or off (delta = −1) topic k.
func (g *gibbsDoc) add(s, k int, delta float64) {
	g.ndk[k] += delta
	g.ndkSum += delta
	row := g.nkw[k*len(g.vocabW) : (k+1)*len(g.vocabW)]
	for _, t := range g.words[g.wOff[s]:g.wOff[s+1]] {
		row[t.local] += delta
		g.nkwSum[k] += delta
	}
	row = g.nku[k*len(g.vocabU) : (k+1)*len(g.vocabU)]
	for _, t := range g.urls[g.uOff[s]:g.uOff[s+1]] {
		row[t.local] += delta
		g.nkuSum[k] += delta
	}
}

// logWeights fills logw[k] with the collapsed Gibbs conditional
// (Eq. 23) of assigning session s to topic k: the doc-mixture factor,
// the sequential Dirichlet-multinomial probability of the session's
// words under φ_kd (prior β_k), likewise for URLs under Ω_kd (prior
// δ_k), and the Beta timestamp density.
func (g *gibbsDoc) logWeights(p *gibbsPriors, s int, logw []float64) {
	words := g.words[g.wOff[s]:g.wOff[s+1]]
	urls := g.urls[g.uOff[s]:g.uOff[s+1]]
	nw, nu := len(g.vocabW), len(g.vocabU)
	for k := range logw {
		lw := math.Log(g.ndk[k] + p.alpha[k])
		row, prior, den := g.nkw[k*nw:(k+1)*nw], p.betaPrior[k], p.betaSum[k]
		sum := g.nkwSum[k]
		for _, t := range words {
			lw += math.Log((row[t.local] + t.rep + prior[t.global]) / (sum + den))
			sum++
		}
		row, prior, den = g.nku[k*nu:(k+1)*nu], p.deltaPrior[k], p.deltaSum[k]
		sum = g.nkuSum[k]
		for _, t := range urls {
			lw += math.Log((row[t.local] + t.rep + prior[t.global]) / (sum + den))
			sum++
		}
		lw += numeric.BetaLogPDFFrom(g.logT[s], g.log1mT[s], p.tau[k][0], p.tau[k][1], p.logBeta[k])
		logw[k] = lw
	}
}

// sweep resamples every session's topic once, in order.
func (g *gibbsDoc) sweep(p *gibbsPriors, rng *rand.Rand, logw []float64) {
	for s, old := range g.z {
		g.add(s, old, -1)
		g.logWeights(p, s, logw)
		k := numeric.SampleLogCategorical(rng, logw)
		g.z[s] = k
		g.add(s, k, 1)
	}
}

// publish writes the document's counts into the model's map form as
// document d. Every slice and map is freshly allocated, so publishing
// never writes into state a Clone may share.
func (g *gibbsDoc) publish(m *UPM, d int) {
	m.ndk[d] = slices.Clone(g.ndk)
	m.ndkSum[d] = g.ndkSum
	m.nkwdSum[d] = slices.Clone(g.nkwSum)
	m.nkudSum[d] = slices.Clone(g.nkuSum)
	m.nkwd[d] = countMaps(g.nkw, g.vocabW, len(g.ndk))
	m.nkud[d] = countMaps(g.nku, g.vocabU, len(g.ndk))
}

// countMaps converts a dense (topic × local id) block into per-topic
// sparse maps keyed by corpus id, keeping only nonzero counts.
func countMaps(dense []float64, vocab []int32, k int) []map[int]float64 {
	out := make([]map[int]float64, k)
	for kk := range out {
		row := dense[kk*len(vocab) : (kk+1)*len(vocab)]
		n := 0
		for _, c := range row {
			if c != 0 {
				n++
			}
		}
		mm := make(map[int]float64, n)
		for j, c := range row {
			if c != 0 {
				mm[int(vocab[j])] = c
			}
		}
		out[kk] = mm
	}
	return out
}
