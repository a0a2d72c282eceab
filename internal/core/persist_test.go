package core

import (
	"bytes"
	"context"
	"testing"
	"time"
)

func TestEngineSaveLoadRoundTrip(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, false)
	q := pickQuery(t, w)
	user := w.UserIDs()[0]
	at := time.Now()
	orig, err := e.Do(context.Background(), SuggestRequest{User: user, Query: q, At: at, K: 8})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	size := buf.Len()
	loaded, err := LoadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Profiles() == nil {
		t.Fatal("profiles lost in round trip")
	}
	got, err := loaded.Do(context.Background(), SuggestRequest{User: user, Query: q, At: at, K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Suggestions) != len(orig.Suggestions) {
		t.Fatalf("suggestion counts differ: %d vs %d", len(got.Suggestions), len(orig.Suggestions))
	}
	for i := range orig.Suggestions {
		if got.Suggestions[i] != orig.Suggestions[i] {
			t.Fatalf("suggestion %d differs after reload: %q vs %q",
				i, orig.Suggestions[i], got.Suggestions[i])
		}
	}
	// The persisted engine must be compact relative to the raw log
	// (the paper's "concise enough for offline storage" point is about
	// profiles, but a blown-up file would indicate we serialized the
	// log by accident).
	if size == 0 {
		t.Fatal("empty save")
	}
	t.Logf("engine file: %d bytes for %d log entries", size, w.Log.Len())
}

func TestEngineSaveLoadDiversificationOnly(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, true)
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Profiles() != nil {
		t.Fatal("diversification-only engine grew profiles on reload")
	}
	q := pickQuery(t, w)
	if _, err := loaded.SuggestDiversified(q, nil, time.Now(), 5); err != nil {
		t.Fatal(err)
	}
}

func TestLoadEngineGarbage(t *testing.T) {
	if _, err := LoadEngine(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadEnginePreservesPersonalization(t *testing.T) {
	// The loaded engine's preference scores must match the original's
	// exactly for every user.
	w := testWorld(t)
	e := testEngine(t, w, false)
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	q := pickQuery(t, w)
	for _, u := range w.UserIDs()[:5] {
		a := e.Profiles().PreferenceScore(u, q, 0)
		b := loaded.Profiles().PreferenceScore(u, q, 0)
		if a != b {
			t.Fatalf("user %s: preference %v != %v after reload", u, a, b)
		}
	}
}
