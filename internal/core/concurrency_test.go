package core

import (
	"context"
	"sync"
	"testing"
	"time"
)

// The engine is immutable after NewEngine; concurrent Suggest calls
// must be safe (the memoized average transition is the only lazy
// state). Run with -race to verify.
func TestSuggestConcurrent(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, false)
	queries := make([]string, 0, 8)
	for q := range w.Log.QueryFrequency() {
		queries = append(queries, q)
		if len(queries) == 8 {
			break
		}
	}
	users := w.UserIDs()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				_, err := e.Do(context.Background(), SuggestRequest{User: users[(g+i)%len(users)], Query: queries[(g*3+i)%len(queries)], K: 5})
				if err != nil && err != ErrUnknownQuery {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Repeated identical calls must return identical results (the engine
// has no hidden mutable ranking state).
func TestSuggestDeterministicAcrossCalls(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, false)
	q := pickQuery(t, w)
	user := w.UserIDs()[1]
	at := time.Now()
	first, err := e.Do(context.Background(), SuggestRequest{User: user, Query: q, At: at, K: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := e.Do(context.Background(), SuggestRequest{User: user, Query: q, At: at, K: 8})
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Suggestions) != len(first.Suggestions) {
			t.Fatal("result size changed between calls")
		}
		for j := range first.Suggestions {
			if first.Suggestions[j] != again.Suggestions[j] {
				t.Fatalf("call %d: suggestion %d changed: %q vs %q",
					i, j, first.Suggestions[j], again.Suggestions[j])
			}
		}
	}
}
