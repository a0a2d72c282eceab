package core

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/querylog"
	"repro/internal/synth"
)

// A log with no clicks at all: the URL view is empty, yet the engine
// must still diversify through the session and term views (the
// multi-bipartite robustness claim of Section III).
func TestEngineClicklessLog(t *testing.T) {
	w := synth.Generate(synth.Config{Seed: 71, NumFacets: 4, NumUsers: 8, SessionsPerUser: 12})
	stripped := &querylog.Log{}
	for _, e := range w.Log.Entries {
		e.ClickedURL = ""
		stripped.Append(e)
	}
	e, err := NewEngine(stripped, Config{
		Compact:             bipartite.CompactConfig{Budget: 40},
		SkipPersonalization: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := ""
	for s := range stripped.QueryFrequency() {
		q = s
		break
	}
	res, err := e.SuggestDiversified(q, nil, time.Now(), 5)
	if err != nil {
		t.Fatalf("clickless log cannot suggest: %v", err)
	}
	if len(res.Diversified) == 0 {
		t.Fatal("no suggestions from session/term views alone")
	}
}

// One single user: personalization trains a one-document UPM and the
// pipeline still works end to end.
func TestEngineSingleUser(t *testing.T) {
	w := synth.Generate(synth.Config{Seed: 72, NumFacets: 3, NumUsers: 1, SessionsPerUser: 20})
	e, err := NewEngine(w.Log, Config{
		Compact: bipartite.CompactConfig{Budget: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	q := pickQuery(t, w)
	res, err := e.Do(context.Background(), SuggestRequest{User: w.UserIDs()[0], Query: q, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suggestions) == 0 {
		t.Fatal("single-user engine returned nothing")
	}
}

// Serialization fidelity: an engine built from a TSV round-tripped log
// must produce identical suggestions (same seed, same data ⇒ same
// model).
func TestEngineTSVRoundTripFidelity(t *testing.T) {
	w := synth.Generate(synth.Config{Seed: 73, NumFacets: 4, NumUsers: 8, SessionsPerUser: 12})
	var buf bytes.Buffer
	if err := w.Log.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	reparsed, err := querylog.ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Compact: bipartite.CompactConfig{Budget: 40}, SkipPersonalization: true}
	e1, err := NewEngine(w.Log, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(reparsed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := pickQuery(t, w)
	at := time.Now()
	r1, err1 := e1.SuggestDiversified(q, nil, at, 8)
	r2, err2 := e2.SuggestDiversified(q, nil, at, 8)
	if err1 != nil || err2 != nil {
		t.Fatalf("errs: %v %v", err1, err2)
	}
	if len(r1.Diversified) != len(r2.Diversified) {
		t.Fatalf("lengths differ: %d vs %d", len(r1.Diversified), len(r2.Diversified))
	}
	for i := range r1.Diversified {
		if r1.Diversified[i] != r2.Diversified[i] {
			t.Fatalf("suggestion %d differs after round trip: %q vs %q", i, r1.Diversified[i], r2.Diversified[i])
		}
	}
}

// Empty-session-context robustness: passing context entries whose
// queries are unknown must not break anything.
func TestSuggestUnknownContext(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, true)
	q := pickQuery(t, w)
	ctx := []querylog.Entry{{UserID: "u", Query: "zzz not in log", Time: time.Now().Add(-time.Minute)}}
	res, err := e.SuggestDiversified(q, ctx, time.Now(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diversified) == 0 {
		t.Fatal("unknown context suppressed all suggestions")
	}
}
