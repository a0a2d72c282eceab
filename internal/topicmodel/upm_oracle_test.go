package topicmodel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/numeric"
)

// The map-based UPM sampler below is the reference oracle for the
// dense Gibbs kernel (upm_gibbs.go): it evaluates Eq. 23 the textbook
// way, with per-(document, topic) count maps and per-call bump maps.
// The kernel must reproduce it exactly — every log weight, assignment,
// count and learned hyperparameter compared with ==, no tolerance.

func (m *UPM) addSession(d, k int, sess Session, delta float64) {
	m.ndk[d][k] += delta
	m.ndkSum[d] += delta
	for _, w := range sess.Words() {
		m.nkwd[d][k][w] += delta
		if m.nkwd[d][k][w] == 0 {
			delete(m.nkwd[d][k], w)
		}
		m.nkwdSum[d][k] += delta
	}
	for _, u := range sess.URLs() {
		m.nkud[d][k][u] += delta
		if m.nkud[d][k][u] == 0 {
			delete(m.nkud[d][k], u)
		}
		m.nkudSum[d][k] += delta
	}
}

// sessionLogWeight is the collapsed Gibbs conditional (Eq. 23) for
// assigning the session to topic k.
func (m *UPM) sessionLogWeight(d, k int, sess Session) float64 {
	lw := math.Log(m.ndk[d][k] + m.alpha[k])
	wSum := m.nkwdSum[d][k]
	bumpW := make(map[int]float64)
	for _, w := range sess.Words() {
		lw += math.Log((m.nkwd[d][k][w] + bumpW[w] + m.betaPrior[k][w]) / (wSum + m.betaSum[k]))
		bumpW[w]++
		wSum++
	}
	uSum := m.nkudSum[d][k]
	bumpU := make(map[int]float64)
	for _, u := range sess.URLs() {
		lw += math.Log((m.nkud[d][k][u] + bumpU[u] + m.deltaPrior[k][u]) / (uSum + m.deltaSum[k]))
		bumpU[u]++
		uSum++
	}
	lw += numeric.BetaLogPDF(sess.Time, m.tau[k][0], m.tau[k][1])
	return lw
}

// emptyDocState gives document d zeroed counts in the map form.
func (m *UPM) emptyDocState(d int) {
	m.ndk[d] = make([]float64, m.cfg.K)
	m.ndkSum[d] = 0
	m.nkwd[d] = make([]map[int]float64, m.cfg.K)
	m.nkwdSum[d] = make([]float64, m.cfg.K)
	m.nkud[d] = make([]map[int]float64, m.cfg.K)
	m.nkudSum[d] = make([]float64, m.cfg.K)
	for k := 0; k < m.cfg.K; k++ {
		m.nkwd[d][k] = make(map[int]float64)
		m.nkud[d][k] = make(map[int]float64)
	}
}

// trainUPMReference is TrainUPM on the map-based sampler, sequential.
func trainUPMReference(c *Corpus, cfg UPMConfig) (*UPM, [][]int) {
	cfg = cfg.withDefaults()
	m := newUPM(c, cfg)
	docRngs := make([]*rand.Rand, len(c.Docs))
	z := make([][]int, len(c.Docs))
	for d, doc := range c.Docs {
		m.emptyDocState(d)
		docRngs[d] = rand.New(rand.NewSource(cfg.Seed<<20 + int64(d)))
		z[d] = make([]int, len(doc.Sessions))
		for s, sess := range doc.Sessions {
			k := docRngs[d].Intn(cfg.K)
			z[d][s] = k
			m.addSession(d, k, sess, 1)
		}
	}
	hyperAt := make(map[int]bool)
	for r := 1; r <= cfg.HyperRounds; r++ {
		hyperAt[cfg.Iterations*r/cfg.HyperRounds-1] = true
	}
	logw := make([]float64, cfg.K)
	for it := 0; it < cfg.Iterations; it++ {
		for d, doc := range c.Docs {
			for s, sess := range doc.Sessions {
				m.addSession(d, z[d][s], sess, -1)
				for k := range logw {
					logw[k] = m.sessionLogWeight(d, k, sess)
				}
				k := numeric.SampleLogCategorical(docRngs[d], logw)
				z[d][s] = k
				m.addSession(d, k, sess, 1)
			}
		}
		m.refitTau(c, z, make([][]float64, cfg.K))
		if hyperAt[it] {
			m.optimizeHyperparameters()
		}
	}
	return m, z
}

// foldInReference is FoldIn on the map-based sampler.
func (m *UPM) foldInReference(userID string, sessions []Session, iterations int, seed int64) (int, []int) {
	if iterations <= 0 {
		iterations = 20
	}
	m.thaw()
	rng := rand.New(rand.NewSource(seed))
	d, exists := m.docID[userID]
	if !exists {
		d = len(m.ndk)
		m.docID[userID] = d
		m.ndk = append(m.ndk, nil)
		m.ndkSum = append(m.ndkSum, 0)
		m.nkwd = append(m.nkwd, nil)
		m.nkwdSum = append(m.nkwdSum, nil)
		m.nkud = append(m.nkud, nil)
		m.nkudSum = append(m.nkudSum, nil)
	}
	m.emptyDocState(d)
	clean := m.inVocabulary(sessions)
	z := make([]int, len(clean))
	logw := make([]float64, m.cfg.K)
	for s, sess := range clean {
		for k := range logw {
			logw[k] = m.sessionLogWeight(d, k, sess)
		}
		best := 0
		for k := 1; k < m.cfg.K; k++ {
			if logw[k] > logw[best] {
				best = k
			}
		}
		z[s] = best
		m.addSession(d, best, sess, 1)
	}
	for it := 0; it < iterations; it++ {
		for s, sess := range clean {
			m.addSession(d, z[s], sess, -1)
			for k := range logw {
				logw[k] = m.sessionLogWeight(d, k, sess)
			}
			k := numeric.SampleLogCategorical(rng, logw)
			z[s] = k
			m.addSession(d, k, sess, 1)
		}
	}
	return d, z
}

// randomCorpus draws a small corpus over tiny vocabularies with ids
// skewed toward 0, so words and URLs repeat within sessions (the bump
// terms) and pile up counts across sessions. Timestamps include the
// clamped edges 0 and 1, and one document has no sessions.
func randomCorpus(seed int64) *Corpus {
	rng := rand.New(rand.NewSource(seed))
	c := &Corpus{Words: bipartite.NewIndex(), URLs: bipartite.NewIndex()}
	nv, nu := 4+rng.Intn(20), 2+rng.Intn(8)
	for w := 0; w < nv; w++ {
		c.Words.Intern(fmt.Sprintf("w%d", w))
	}
	for u := 0; u < nu; u++ {
		c.URLs.Intern(fmt.Sprintf("u%d", u))
	}
	ndocs := 3 + rng.Intn(10)
	for d := 0; d < ndocs; d++ {
		doc := Document{UserID: fmt.Sprintf("user%d", d)}
		nsess := 1 + rng.Intn(16)
		if d == 1 {
			nsess = 0
		}
		for s := 0; s < nsess; s++ {
			sess := Session{Time: rng.Float64()}
			switch rng.Intn(10) {
			case 0:
				sess.Time = 0
			case 1:
				sess.Time = 1
			}
			for e, ne := 0, 1+rng.Intn(4); e < ne; e++ {
				ev := QueryEvent{URL: NoURL}
				for i, nw := 0, rng.Intn(5); i < nw; i++ {
					ev.Words = append(ev.Words, rng.Intn(1+rng.Intn(nv)))
				}
				if len(ev.Words) == 0 || rng.Intn(2) == 0 {
					ev.URL = rng.Intn(1 + rng.Intn(nu))
				}
				sess.Events = append(sess.Events, ev)
			}
			doc.Sessions = append(doc.Sessions, sess)
		}
		c.Docs = append(c.Docs, doc)
	}
	return c
}

// assertSameUPM fails unless both models hold bit-identical state.
func assertSameUPM(t *testing.T, what string, want, got *UPM) {
	t.Helper()
	a, b := want.State(), got.State()
	if a.Cfg != b.Cfg || a.V != b.V || a.U != b.U || a.D != b.D {
		t.Fatalf("%s: dims/config differ: %+v vs %+v", what, a.Cfg, b.Cfg)
	}
	floats := []struct {
		name string
		a, b []float64
	}{
		{"Alpha", a.Alpha, b.Alpha}, {"BetaPrior", a.BetaPrior, b.BetaPrior},
		{"DeltaPrior", a.DeltaPrior, b.DeltaPrior}, {"BetaSum", a.BetaSum, b.BetaSum},
		{"DeltaSum", a.DeltaSum, b.DeltaSum}, {"Tau", a.Tau, b.Tau},
		{"Ndk", a.Ndk, b.Ndk}, {"NdkSum", a.NdkSum, b.NdkSum},
		{"NkwdSum", a.NkwdSum, b.NkwdSum}, {"NkudSum", a.NkudSum, b.NkudSum},
		{"NkwdVal", a.NkwdVal, b.NkwdVal}, {"NkudVal", a.NkudVal, b.NkudVal},
	}
	for _, f := range floats {
		if len(f.a) != len(f.b) {
			t.Fatalf("%s: %s has %d vs %d elements", what, f.name, len(f.a), len(f.b))
		}
		for i := range f.a {
			if math.Float64bits(f.a[i]) != math.Float64bits(f.b[i]) {
				t.Fatalf("%s: %s[%d] = %v, want %v", what, f.name, i, f.b[i], f.a[i])
			}
		}
	}
	ints := []struct {
		name string
		a, b []int64
	}{
		{"NkwdPtr", a.NkwdPtr, b.NkwdPtr}, {"NkwdIdx", a.NkwdIdx, b.NkwdIdx},
		{"NkudPtr", a.NkudPtr, b.NkudPtr}, {"NkudIdx", a.NkudIdx, b.NkudIdx},
	}
	for _, f := range ints {
		if fmt.Sprint(f.a) != fmt.Sprint(f.b) {
			t.Fatalf("%s: %s differs:\n got %v\nwant %v", what, f.name, f.b, f.a)
		}
	}
	if string(a.DocBlob) != string(b.DocBlob) || fmt.Sprint(a.DocOffsets) != fmt.Sprint(b.DocOffsets) {
		t.Fatalf("%s: user-ID index differs", what)
	}
}

func assertSameTopics(t *testing.T, what string, want, got []int) {
	t.Helper()
	if fmt.Sprint(want) != fmt.Sprint(got) {
		t.Fatalf("%s: topics %v, want %v", what, got, want)
	}
}

// loadDense copies document d's map-form counts into the kernel's
// dense block.
func loadDense(g *gibbsDoc, m *UPM, d int) {
	copy(g.ndk, m.ndk[d])
	g.ndkSum = m.ndkSum[d]
	copy(g.nkwSum, m.nkwdSum[d])
	copy(g.nkuSum, m.nkudSum[d])
	for k := range g.ndk {
		for j, w := range g.vocabW {
			g.nkw[k*len(g.vocabW)+j] = m.nkwd[d][k][int(w)]
		}
		for j, u := range g.vocabU {
			g.nku[k*len(g.vocabU)+j] = m.nkud[d][k][int(u)]
		}
	}
}

// Every per-topic log weight of the kernel equals the map-based
// Eq. 23 evaluation, on trained state with learned priors.
func TestGibbsLogWeightsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		c := randomCorpus(seed)
		m, _ := trainUPMReference(c, UPMConfig{K: 4, Iterations: 6, Seed: seed, HyperRounds: 2, HyperIters: 4})
		p := m.gibbsPriors()
		logw := make([]float64, m.cfg.K)
		for d, doc := range c.Docs {
			g := newGibbsDoc(doc.Sessions, m.cfg.K)
			loadDense(g, m, d)
			for s, sess := range doc.Sessions {
				g.logWeights(p, s, logw)
				for k := range logw {
					if want := m.sessionLogWeight(d, k, sess); math.Float64bits(logw[k]) != math.Float64bits(want) {
						t.Fatalf("seed %d doc %d session %d topic %d: log weight %v, want %v", seed, d, s, k, logw[k], want)
					}
				}
			}
		}
	}
}

// TrainUPM equals the map-based sampler exactly at 1 and N workers.
func TestTrainUPMMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		c := randomCorpus(seed)
		cfg := UPMConfig{K: 2 + int(seed)%4, Iterations: 8, Seed: seed, HyperRounds: 2, HyperIters: 4}
		ref, zRef := trainUPMReference(c, cfg)
		for _, workers := range []int{1, 2, 5} {
			m, z := trainUPM(c, cfg, workers)
			what := fmt.Sprintf("seed %d workers %d", seed, workers)
			for d := range zRef {
				assertSameTopics(t, fmt.Sprintf("%s doc %d", what, d), zRef[d], z[d])
			}
			assertSameUPM(t, what, ref, m)
		}
	}
	// No hyperparameter rounds: the counts are published only at the end.
	c := randomCorpus(99)
	cfg := UPMConfig{K: 3, Iterations: 5, Seed: 4, HyperRounds: -1}
	ref, _ := trainUPMReference(c, cfg)
	m, _ := trainUPM(c, cfg, 3)
	assertSameUPM(t, "no hyper rounds", ref, m)
}

// FoldIn equals the map-based fold-in exactly, for a new user and for
// re-learning an existing one, including out-of-vocabulary tokens.
func TestFoldInMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		c := randomCorpus(seed)
		cfg := UPMConfig{K: 3, Iterations: 6, Seed: seed, HyperRounds: 1, HyperIters: 4}
		sessions := append([]Session(nil), c.Docs[0].Sessions...)
		sessions = append(sessions, Session{Time: 1.5, Events: []QueryEvent{
			{Words: []int{c.V() + 3, 0, -1, 0}, URL: c.U()},
			{Words: []int{c.V()}, URL: NoURL},
		}})
		for _, user := range []string{"newcomer", c.Docs[2].UserID} {
			ref, _ := trainUPM(c, cfg, 1)
			m, _ := trainUPM(c, cfg, 1)
			dRef, zRef := ref.foldInReference(user, sessions, 7, seed)
			d, z := m.foldIn(user, sessions, 7, seed)
			what := fmt.Sprintf("seed %d user %s", seed, user)
			if d != dRef {
				t.Fatalf("%s: doc %d, want %d", what, d, dRef)
			}
			assertSameTopics(t, what, zRef, z)
			assertSameUPM(t, what, ref, m)
		}
	}
}
