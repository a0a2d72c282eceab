package pqsda

import (
	"bytes"
	"context"
	"testing"
	"time"
)

func facadeWorld(t *testing.T) *World {
	t.Helper()
	return SyntheticLog(SyntheticConfig{Seed: 61, NumFacets: 5, NumUsers: 10, SessionsPerUser: 15})
}

func TestFacadeEndToEnd(t *testing.T) {
	w := facadeWorld(t)
	e, err := NewEngine(w.Log, Config{CompactBudget: 60, Topics: 5, TrainingIterations: 20})
	if err != nil {
		t.Fatal(err)
	}
	// Pick a frequent query.
	best, bestN := "", 0
	for q, n := range w.Log.QueryFrequency() {
		if n > bestN {
			best, bestN = q, n
		}
	}
	res, err := e.Do(context.Background(), SuggestRequest{User: w.UserIDs()[0], Query: best, K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suggestions) == 0 {
		t.Fatal("no suggestions")
	}
	if len(res.Suggestions) != len(res.Diversified) {
		t.Error("personalization changed the candidate set size")
	}
}

func TestFacadeDiversificationOnly(t *testing.T) {
	w := facadeWorld(t)
	e, err := NewEngine(w.Log, Config{CompactBudget: 60, DiversificationOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if e.Profiles() != nil {
		t.Error("DiversificationOnly engine trained profiles")
	}
}

func TestFacadeLogRoundTrip(t *testing.T) {
	w := facadeWorld(t)
	var buf bytes.Buffer
	if err := WriteLog(w.Log, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != w.Log.Len() {
		t.Fatalf("round trip %d != %d", got.Len(), w.Log.Len())
	}
}

func TestFacadeSessionize(t *testing.T) {
	w := facadeWorld(t)
	sessions := Sessionize(w.Log)
	if len(sessions) == 0 {
		t.Fatal("no sessions")
	}
}

func TestFacadeOneShotSuggest(t *testing.T) {
	w := facadeWorld(t)
	best, bestN := "", 0
	for q, n := range w.Log.QueryFrequency() {
		if n > bestN {
			best, bestN = q, n
		}
	}
	sugs, err := Suggest(w.Log, w.UserIDs()[0], best, 5, Config{
		CompactBudget: 50, Topics: 5, TrainingIterations: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sugs) == 0 || len(sugs) > 5 {
		t.Fatalf("suggestions = %v", sugs)
	}
}

// TestFacadeWorkersDeterministic pins the -workers contract end to end:
// every compute stage (UPM training, the Eq. 15 CG solve, hitting-time
// sweeps) is bit-identical at any worker count, so two engines differing
// only in Workers must suggest exactly the same queries in the same
// order.
func TestFacadeWorkersDeterministic(t *testing.T) {
	w := facadeWorld(t)
	base := Config{CompactBudget: 60, Topics: 5, TrainingIterations: 20}
	seq, err := NewEngine(w.Log, base)
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.Workers = 4
	parE, err := NewEngine(w.Log, par)
	if err != nil {
		t.Fatal(err)
	}
	best, bestN := "", 0
	for q, n := range w.Log.QueryFrequency() {
		if n > bestN {
			best, bestN = q, n
		}
	}
	now := time.Now()
	for _, uid := range w.UserIDs()[:3] {
		a, err := seq.Do(context.Background(), SuggestRequest{User: uid, Query: best, At: now, K: 8})
		if err != nil {
			t.Fatal(err)
		}
		b, err := parE.Do(context.Background(), SuggestRequest{User: uid, Query: best, At: now, K: 8})
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Suggestions) != len(b.Suggestions) {
			t.Fatalf("user %s: %d vs %d suggestions", uid, len(a.Suggestions), len(b.Suggestions))
		}
		for i := range a.Suggestions {
			if a.Suggestions[i] != b.Suggestions[i] {
				t.Fatalf("user %s: suggestion %d differs: %q vs %q",
					uid, i, a.Suggestions[i], b.Suggestions[i])
			}
		}
	}
}
