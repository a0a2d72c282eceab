package topicmodel

import (
	"math"
	"testing"
)

func TestFoldInNewUser(t *testing.T) {
	c := synthCorpus(t)
	m := trainedUPM(t, c)
	before := m.NumDocs()

	// Clone an existing user's sessions as a "new" user: their inferred
	// profile should resemble the original's.
	src := 0
	d := m.FoldIn("newcomer", c.Docs[src].Sessions, 30, 99)
	if m.NumDocs() != before+1 {
		t.Fatalf("NumDocs = %d, want %d", m.NumDocs(), before+1)
	}
	if got, ok := m.DocOf("newcomer"); !ok || got != d {
		t.Fatalf("DocOf(newcomer) = %d,%v", got, ok)
	}
	thNew := m.Theta(d)
	thSrc := m.Theta(src)
	sumsTo1 := 0.0
	for _, p := range thNew {
		sumsTo1 += p
	}
	if math.Abs(sumsTo1-1) > 1e-9 {
		t.Fatalf("folded theta sums to %v", sumsTo1)
	}
	// The folded profile should match its source user better than it
	// matches most other users: single-chain Gibbs keeps some sampling
	// noise, so we assert ranking rather than an absolute cosine.
	cos := func(a, b []float64) float64 {
		dot, na, nb := 0.0, 0.0, 0.0
		for k := range a {
			dot += a[k] * b[k]
			na += a[k] * a[k]
			nb += b[k] * b[k]
		}
		return dot / math.Sqrt(na*nb)
	}
	own := cos(thNew, thSrc)
	closer := 0
	for other := 0; other < before; other++ {
		if other == src {
			continue
		}
		if cos(thNew, m.Theta(other)) > own {
			closer++
		}
	}
	if closer > before/4 {
		t.Errorf("folded profile closer to %d/%d other users than to its source (own cosine %.3f)",
			closer, before-1, own)
	}
	// Predictive probabilities behave.
	p := m.PredictiveWordProb(d, 0)
	if p <= 0 || math.IsNaN(p) {
		t.Fatalf("predictive prob %v", p)
	}
}

func TestFoldInReplacesExistingUser(t *testing.T) {
	c := synthCorpus(t)
	m := trainedUPM(t, c)
	before := m.NumDocs()
	user := c.Docs[1].UserID
	d := m.FoldIn(user, c.Docs[2].Sessions, 20, 5)
	if m.NumDocs() != before {
		t.Fatalf("replace grew the doc table: %d vs %d", m.NumDocs(), before)
	}
	if got, _ := m.DocOf(user); got != d {
		t.Fatalf("DocOf changed: %d vs %d", got, d)
	}
}

func TestFoldInOutOfVocabTokens(t *testing.T) {
	c := synthCorpus(t)
	m := trainedUPM(t, c)
	sessions := []Session{{
		Time: 0.5,
		Events: []QueryEvent{
			{Words: []int{c.V() + 5, -3}, URL: c.U() + 9}, // all out of range
			{Words: []int{0}, URL: NoURL},                 // one valid word
		},
	}}
	d := m.FoldIn("oov-user", sessions, 10, 1)
	theta := m.Theta(d)
	sum := 0.0
	for _, p := range theta {
		if p <= 0 {
			t.Fatal("invalid theta after OOV fold-in")
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("theta sums to %v", sum)
	}
}

func TestFoldInEmptySessions(t *testing.T) {
	c := synthCorpus(t)
	m := trainedUPM(t, c)
	d := m.FoldIn("ghost", nil, 10, 1)
	// A user with no usable history gets the prior profile.
	theta := m.Theta(d)
	for k := 1; k < len(theta); k++ {
		// With no counts, theta is proportional to alpha.
		want := m.alpha[k] / numericSum(m.alpha)
		if math.Abs(theta[k]-want) > 1e-9 {
			t.Fatalf("empty-history theta[%d] = %v, want prior %v", k, theta[k], want)
		}
	}
}

func numericSum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// Re-learning an existing user (and adding a new one) on a Clone leaves
// every profile of the original bitwise unchanged: FoldIn publishes
// fresh state instead of writing into the document state the clone
// shares with the original.
func TestFoldInOnCloneLeavesOriginal(t *testing.T) {
	c := synthCorpus(t)
	m := trainedUPM(t, c)
	type profile struct{ theta, words, urls []float64 }
	snapshot := func(m *UPM) []profile {
		out := make([]profile, m.NumDocs())
		for d := range out {
			out[d].theta = m.Theta(d)
			for k := 0; k < m.K(); k++ {
				for w := 0; w < c.V(); w++ {
					out[d].words = append(out[d].words, m.WordProb(d, k, w))
				}
				for u := 0; u < c.U(); u++ {
					out[d].urls = append(out[d].urls, m.URLProb(d, k, u))
				}
			}
		}
		return out
	}
	before := snapshot(m)

	user := c.Docs[1].UserID
	cl := m.Clone()
	d := cl.FoldIn(user, c.Docs[2].Sessions, 20, 5)
	cl.FoldIn("newcomer", c.Docs[3].Sessions, 20, 6)
	if got, _ := m.DocOf(user); got != d {
		t.Fatalf("DocOf(%s) = %d, want %d", user, got, d)
	}
	if _, ok := m.DocOf("newcomer"); ok || m.NumDocs() != len(before) {
		t.Fatal("fold-in of a new user on the clone reached the original")
	}
	after := snapshot(m)
	for dd := range before {
		for _, pair := range [][2][]float64{
			{before[dd].theta, after[dd].theta},
			{before[dd].words, after[dd].words},
			{before[dd].urls, after[dd].urls},
		} {
			for i := range pair[0] {
				if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
					t.Fatalf("doc %d: original profile changed at %d: %v -> %v", dd, i, pair[0][i], pair[1][i])
				}
			}
		}
	}
	changed := false
	for k, p := range cl.Theta(d) {
		changed = changed || p != before[d].theta[k]
	}
	if !changed {
		t.Fatal("re-learning on the clone did not change the clone's profile")
	}
}
