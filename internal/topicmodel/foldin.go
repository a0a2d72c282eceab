package topicmodel

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/querylog"
)

// FoldIn infers a profile for a document that was NOT part of training
// — the "new user" path of online personalization. It runs Gibbs
// sampling over the new document's session topics only, holding the
// learned hyperparameters (α, β, δ, τ) fixed: the global topic content
// carried by β/δ anchors the topics, and the new user's own counts
// personalize the emissions exactly as for trained users.
//
// The model is extended in place: the returned document index d serves
// Theta(d), WordProb(d, …) and PredictiveWordProb(d, …) like any
// trained document, and DocOf(userID) resolves it. Folding in a user
// ID that already exists replaces that user's document statistics. The
// document's state is built fresh and swapped in, so FoldIn on a Clone
// never writes into state the original shares.
//
// iterations is the number of Gibbs sweeps over the new document
// (default 20 when ≤ 0).
func (m *UPM) FoldIn(userID string, sessions []Session, iterations int, seed int64) int {
	d, _ := m.foldIn(userID, sessions, iterations, seed)
	return d
}

// foldIn is FoldIn; it also returns the final session topics of the
// in-vocabulary sessions.
func (m *UPM) foldIn(userID string, sessions []Session, iterations int, seed int64) (int, []int) {
	if iterations <= 0 {
		iterations = 20
	}
	// Fold-in mutates per-document counts: an arena-backed (read-only)
	// model must thaw into the mutable form first. The engine only ever
	// folds into clones, so serving snapshots stay flat.
	m.thaw()
	rng := rand.New(rand.NewSource(seed))

	g := newGibbsDoc(m.inVocabulary(sessions), m.cfg.K)
	if len(g.z) > 0 {
		p := m.gibbsPriors()
		logw := make([]float64, m.cfg.K)
		// Greedy anchored initialization: before the document
		// accumulates its own counts, assign each session to the topic
		// the LEARNED priors (β, δ, τ) explain best. Random
		// initialization would let the per-document emissions
		// self-reinforce an arbitrary labeling; anchoring first keeps
		// the fold-in in the trained topic space.
		for s := range g.z {
			g.logWeights(p, s, logw)
			best := 0
			for k := 1; k < m.cfg.K; k++ {
				if logw[k] > logw[best] {
					best = k
				}
			}
			g.z[s] = best
			g.add(s, best, 1)
		}
		for it := 0; it < iterations; it++ {
			g.sweep(p, rng, logw)
		}
	}

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
	g.publish(m, d)
	return d, g.z
}

// inVocabulary drops tokens outside the trained vocabularies (the
// fold-in cannot grow β/δ, and unseen words carry no topic signal
// anyway), then events and sessions left empty; timestamps are clamped
// into [0, 1].
func (m *UPM) inVocabulary(sessions []Session) []Session {
	clean := make([]Session, 0, len(sessions))
	for _, sess := range sessions {
		ns := Session{Time: clampUnit(sess.Time)}
		for _, ev := range sess.Events {
			ne := QueryEvent{URL: NoURL}
			for _, w := range ev.Words {
				if w >= 0 && w < m.v {
					ne.Words = append(ne.Words, w)
				}
			}
			if ev.URL >= 0 && ev.URL < m.u {
				ne.URL = ev.URL
			}
			if len(ne.Words) > 0 || ne.URL != NoURL {
				ns.Events = append(ns.Events, ne)
			}
		}
		if len(ns.Events) > 0 {
			clean = append(clean, ns)
		}
	}
	return clean
}

func clampUnit(t float64) float64 {
	if math.IsNaN(t) || t < 0 {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}

// SessionsForFoldIn converts sessionized query-log data into the
// model-facing session format using a corpus's EXISTING vocabularies
// (tokens never seen in training are marked out-of-vocabulary and
// dropped by FoldIn). normTime may be nil to use the corpus's own time
// range.
func SessionsForFoldIn(c *Corpus, sessions []querylog.Session, normTime func(time.Time) float64) []Session {
	if normTime == nil {
		normTime = c.NormTime
	}
	out := make([]Session, 0, len(sessions))
	for _, s := range sessions {
		ns := Session{Time: normTime(s.Entries[0].Time)}
		for _, e := range s.Entries {
			ev := QueryEvent{URL: NoURL}
			for _, w := range querylog.Tokenize(e.Query) {
				if id, ok := c.Words.Lookup(w); ok {
					ev.Words = append(ev.Words, id)
				}
			}
			if e.ClickedURL != "" {
				if id, ok := c.URLs.Lookup(e.ClickedURL); ok {
					ev.URL = id
				}
			}
			if len(ev.Words) > 0 || ev.URL != NoURL {
				ns.Events = append(ns.Events, ev)
			}
		}
		if len(ns.Events) > 0 {
			out = append(out, ns)
		}
	}
	return out
}
