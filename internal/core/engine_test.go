package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/querylog"
	"repro/internal/synth"
	"repro/internal/topicmodel"
)

func testWorld(t *testing.T) *synth.World {
	t.Helper()
	return synth.Generate(synth.Config{Seed: 51, NumFacets: 6, NumUsers: 12, SessionsPerUser: 15})
}

func testEngine(t *testing.T, w *synth.World, skipPersonalization bool) *Engine {
	t.Helper()
	e, err := NewEngine(w.Log, Config{
		Compact:             bipartite.CompactConfig{Budget: 60},
		UPM:                 topicmodel.UPMConfig{K: 6, Iterations: 25, Seed: 1, HyperRounds: 1, HyperIters: 5},
		SkipPersonalization: skipPersonalization,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// pickQuery returns a frequent query (well connected in the graphs).
func pickQuery(t *testing.T, w *synth.World) string {
	t.Helper()
	best, bestN := "", 0
	for q, n := range w.Log.QueryFrequency() {
		if n > bestN {
			best, bestN = q, n
		}
	}
	if best == "" {
		t.Fatal("empty log")
	}
	return best
}

func TestNewEngineEmptyLog(t *testing.T) {
	if _, err := NewEngine(&querylog.Log{}, Config{}); err == nil {
		t.Fatal("empty log accepted")
	}
}

func TestSuggestDiversifiedBasics(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, true)
	q := pickQuery(t, w)
	res, err := e.SuggestDiversified(q, nil, time.Now(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diversified) == 0 {
		t.Fatal("no suggestions")
	}
	if len(res.Diversified) > 8 {
		t.Fatalf("got %d suggestions, want ≤ 8", len(res.Diversified))
	}
	seen := map[string]bool{querylog.NormalizeQuery(q): true}
	for _, s := range res.Diversified {
		if seen[s] {
			t.Fatalf("duplicate or self suggestion %q", s)
		}
		seen[s] = true
	}
	if res.CompactSize < 2 || res.CompactSize > 60 {
		t.Errorf("compact size %d", res.CompactSize)
	}
	if res.SolveIterations <= 0 {
		t.Error("no CG iterations recorded")
	}
}

func TestSuggestDiversifiedContextExcluded(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, true)
	// Use a real session: input = second query, context = first.
	var sess querylog.Session
	for _, s := range e.Sessions() {
		if len(s.Entries) >= 2 {
			sess = s
			break
		}
	}
	if len(sess.Entries) < 2 {
		t.Skip("no multi-query session")
	}
	input := sess.Entries[1]
	ctx := []querylog.Entry{sess.Entries[0]}
	res, err := e.SuggestDiversified(input.Query, ctx, input.Time, 8)
	if err != nil {
		t.Fatal(err)
	}
	ctxNorm := querylog.NormalizeQuery(ctx[0].Query)
	inputNorm := querylog.NormalizeQuery(input.Query)
	for _, s := range res.Diversified {
		if s == ctxNorm || s == inputNorm {
			t.Fatalf("seed query %q appeared in suggestions", s)
		}
	}
}

func TestSuggestPersonalizedReordersOnly(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, false)
	q := pickQuery(t, w)
	user := w.UserIDs()[0]
	res, err := e.Do(context.Background(), SuggestRequest{User: user, Query: q, K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suggestions) != len(res.Diversified) {
		t.Fatalf("personalization changed list size: %d vs %d", len(res.Suggestions), len(res.Diversified))
	}
	inDiv := make(map[string]bool)
	for _, s := range res.Diversified {
		inDiv[s] = true
	}
	for _, s := range res.Suggestions {
		if !inDiv[s] {
			t.Fatalf("personalization invented suggestion %q", s)
		}
	}
}

func TestSuggestUnknownUserFallsBack(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, false)
	q := pickQuery(t, w)
	res, err := e.Do(context.Background(), SuggestRequest{User: "total-stranger", Query: q, K: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Suggestions {
		if res.Suggestions[i] != res.Diversified[i] {
			t.Fatal("unknown user should keep the diversified order")
		}
	}
}

func TestSuggestUnknownQueryTermFallback(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, true)
	// Compose an unseen query from a known facet term.
	known := pickQuery(t, w)
	toks := querylog.Tokenize(known)
	unseen := toks[0] + " zzznever"
	if _, ok := e.Rep().QueryID(unseen); ok {
		t.Skip("fixture collision")
	}
	res, err := e.SuggestDiversified(unseen, nil, time.Now(), 5)
	if err != nil {
		t.Fatalf("term fallback failed: %v", err)
	}
	if len(res.Diversified) == 0 {
		t.Fatal("no fallback suggestions")
	}
}

func TestSuggestTotallyUnknownQuery(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, true)
	if _, err := e.SuggestDiversified("zzz yyy xxx", nil, time.Now(), 5); err != ErrUnknownQuery {
		t.Fatalf("err = %v, want ErrUnknownQuery", err)
	}
}

func TestSuggestBadK(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, true)
	if _, err := e.SuggestDiversified(pickQuery(t, w), nil, time.Now(), 0); err == nil {
		t.Fatal("k = 0 accepted")
	}
}

func TestPersonalizeRanksOwnFacetHigher(t *testing.T) {
	// Single-facet users (FocusFacets 1) give the cleanest signal: ask
	// an ambiguous query and check personalization lifts same-facet
	// suggestions on average across users.
	w := synth.Generate(synth.Config{
		Seed: 52, NumFacets: 4, NumUsers: 12, SessionsPerUser: 25,
		FocusFacets: 1, SharedTerms: 3, FacetsPerSharedTerm: 3,
	})
	e := testEngine(t, w, false)

	// Find an ambiguous head term query that exists in the rep.
	var head string
	for _, fc := range w.Facets {
		for _, h := range fc.HeadTerms {
			if _, ok := e.Rep().QueryID(h); ok {
				head = h
				break
			}
		}
		if head != "" {
			break
		}
	}
	if head == "" {
		t.Skip("no ambiguous head query in representation")
	}
	headFacets := map[int]bool{}
	for f, fc := range w.Facets {
		for _, h := range fc.HeadTerms {
			if h == head {
				headFacets[f] = true
			}
		}
	}
	// Aggregate over every user whose top facet is one of the head's
	// facets: personalization must lift the user's own facet on average
	// (individual cases are noisy — Borda still honors diversification).
	totalBefore, totalAfter, cases := 0.0, 0.0, 0
	for _, u := range w.UserIDs() {
		pref := w.UserPrefs[u]
		userFacet := 0
		for f := range pref {
			if pref[f] > pref[userFacet] {
				userFacet = f
			}
		}
		if !headFacets[userFacet] {
			continue
		}
		res, err := e.Do(context.Background(), SuggestRequest{User: u, Query: head, K: 10})
		if err != nil {
			continue
		}
		meanRank := func(list []string) float64 {
			sum, n := 0.0, 0
			for i, s := range list {
				if w.QueryFacet(s) == userFacet {
					sum += float64(i)
					n++
				}
			}
			if n == 0 {
				return -1
			}
			return sum / float64(n)
		}
		before := meanRank(res.Diversified)
		after := meanRank(res.Suggestions)
		if before < 0 {
			continue
		}
		totalBefore += before
		totalAfter += after
		cases++
	}
	if cases == 0 {
		t.Skip("no user/head combination produced same-facet suggestions")
	}
	if totalAfter > totalBefore+float64(cases)*0.5 {
		t.Errorf("personalization pushed users' facets down on average over %d cases: mean rank %.2f → %.2f",
			cases, totalBefore/float64(cases), totalAfter/float64(cases))
	}
}
