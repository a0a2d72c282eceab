package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/querylog"
)

func TestLearnUserPersonalizesNewcomer(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, false)

	// Borrow an existing user's history for the newcomer.
	src := w.UserIDs()[2]
	entries := w.Log.ByUser(src)
	if err := e.LearnUser("brand-new", entries); err != nil {
		t.Fatal(err)
	}
	theta := e.Profiles().Theta("brand-new")
	if theta == nil {
		t.Fatal("newcomer has no profile after LearnUser")
	}
	// The newcomer now gets a personalized (non-identity) reranking for
	// some query, like the source user does.
	q := pickQuery(t, w)
	res, err := e.Do(context.Background(), SuggestRequest{User: "brand-new", Query: q, K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suggestions) == 0 {
		t.Fatal("no suggestions for folded-in user")
	}
	// Profiles of the newcomer and its source should prefer the same
	// queries more often than not.
	agree := 0
	for _, s := range res.Diversified {
		a := e.Profiles().PreferenceScore("brand-new", s, 0)
		b := e.Profiles().PreferenceScore(src, s, 0)
		if (a > 0) == (b > 0) {
			agree++
		}
	}
	if agree < len(res.Diversified)/2 {
		t.Errorf("folded profile agrees on only %d/%d candidates", agree, len(res.Diversified))
	}
}

func TestLearnUserErrors(t *testing.T) {
	w := testWorld(t)
	noProfiles := testEngine(t, w, true)
	if err := noProfiles.LearnUser("x", w.Log.Entries[:3]); err == nil {
		t.Error("LearnUser succeeded without profiles")
	}
	withProfiles := testEngine(t, w, false)
	if err := withProfiles.LearnUser("x", nil); err == nil {
		t.Error("LearnUser succeeded with no entries")
	}
}

func TestLearnUserOverridesUserID(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, false)
	entries := []querylog.Entry{
		{UserID: "someone-else", Query: pickQuery(t, w), Time: time.Now()},
	}
	if err := e.LearnUser("the-user", entries); err != nil {
		t.Fatal(err)
	}
	if e.Profiles().Theta("the-user") == nil {
		t.Fatal("profile registered under wrong ID")
	}
}
