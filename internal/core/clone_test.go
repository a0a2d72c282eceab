package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/querylog"
)

// Clone must share no mutable state: learning a user on the clone
// leaves the original's profiles untouched, and vice versa.
func TestCloneIsolatesProfiles(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, false)
	q := pickQuery(t, w)
	entries := []querylog.Entry{
		{UserID: "newbie", Query: q, Time: time.Now()},
		{UserID: "newbie", Query: q, Time: time.Now().Add(time.Second)},
	}
	c := e.Clone()
	if err := c.LearnUser("newbie", entries); err != nil {
		t.Fatal(err)
	}
	if c.Profiles().Theta("newbie") == nil {
		t.Fatal("clone did not learn the user")
	}
	if e.Profiles().Theta("newbie") != nil {
		t.Fatal("LearnUser on the clone mutated the original's profiles")
	}
}

// Rebuild must return a refreshed engine and leave the receiver fully
// intact — the contract the server's hot-swap relies on.
func TestRebuildLeavesOriginalServable(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, true)
	q := pickQuery(t, w)
	origLogLen := e.Log().Len()

	fresh := []querylog.Entry{
		{UserID: "fresh", Query: "rebuild probe query", Time: time.Now()},
		{UserID: "fresh", Query: "rebuild probe query", Time: time.Now().Add(time.Second)},
	}
	next, err := e.Rebuild(fresh, RebuildGraphs)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := next.Rep().QueryID("rebuild probe query"); !ok {
		t.Fatal("rebuilt engine does not know the ingested query")
	}
	if _, ok := e.Rep().QueryID("rebuild probe query"); ok {
		t.Fatal("Rebuild mutated the original's representation")
	}
	if e.Log().Len() != origLogLen {
		t.Fatalf("Rebuild grew the original's log: %d -> %d", origLogLen, e.Log().Len())
	}
	if e.PendingEntries() != 0 {
		t.Fatalf("Rebuild left %d pending entries on the original", e.PendingEntries())
	}
	// Both engines serve.
	for _, eng := range []*Engine{e, next} {
		if _, err := eng.Do(context.Background(), SuggestRequest{Query: q, K: 5}); err != nil {
			t.Fatalf("engine unservable after Rebuild: %v", err)
		}
	}
}

// A mode the engine cannot satisfy must fail fast without ingesting.
func TestRebuildRejectsModeBeforeIngest(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, true) // no profiles
	fresh := []querylog.Entry{{UserID: "u", Query: "x", Time: time.Now()}}
	if _, err := e.Rebuild(fresh, FoldInUsers); err == nil {
		t.Fatal("Rebuild(FoldInUsers) on a profile-less engine succeeded")
	}
	if e.PendingEntries() != 0 {
		t.Fatalf("rejected Rebuild ingested %d entries", e.PendingEntries())
	}
	if err := e.CanRefresh(RebuildGraphs); err != nil {
		t.Fatalf("CanRefresh(RebuildGraphs) = %v", err)
	}
}

// A cancelled context must abort Suggest with ctx.Err() instead of
// running the pipeline.
func TestSuggestContextCancelled(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, true)
	q := pickQuery(t, w)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.Do(ctx, SuggestRequest{Query: q, K: 5})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Suggest with cancelled ctx: err = %v, want context.Canceled", err)
	}
	// And an expired deadline likewise.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	_, err = e.Do(dctx, SuggestRequest{Query: q, K: 5})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Suggest with expired deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

// Term-fallback seeds stand in for the input query; they must not be
// fed into the Eq. 7 context vector as decayed search context, and a
// fallback-served cold query must return suggestions.
func TestTermFallbackServesColdQuery(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, true)
	known := pickQuery(t, w)
	// A cold query sharing a term with a known one.
	cold := known + " zzznovel"
	res, err := e.Do(context.Background(), SuggestRequest{Query: cold, K: 5})
	if err != nil {
		t.Fatalf("cold query via term fallback: %v", err)
	}
	if len(res.Suggestions) == 0 {
		t.Fatal("cold query served no suggestions despite shared terms")
	}
	// Deterministic across calls (sort.Slice ordering is total).
	res2, err := e.Do(context.Background(), SuggestRequest{Query: cold, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Suggestions {
		if res.Suggestions[i] != res2.Suggestions[i] {
			t.Fatalf("fallback suggestions not deterministic: %v vs %v", res.Suggestions, res2.Suggestions)
		}
	}
}
