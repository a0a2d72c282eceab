package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/querylog"
)

// suggestResponse is the part of a /v1/suggest answer the gate reads.
type suggestResponse struct {
	Suggestions []string       `json:"suggestions"`
	Diversified []string       `json:"diversified"`
	Generation  uint64         `json:"generation"`
	Trace       *traceSnapshot `json:"trace"`
}

// traceSnapshot mirrors the server's debug=trace payload.
type traceSnapshot struct {
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"durationMs"`
	Spans      []struct {
		Name          string  `json:"name"`
		StartOffsetMS float64 `json:"startOffsetMs"`
		DurationMS    float64 `json:"durationMs"`
	} `json:"spans"`
}

// Gate is the correctness gate every 200 suggestion response passes
// through: at most K items, no duplicates, the personalized list a
// permutation of the diversified one, no echo of the input query,
// every item in the log vocabulary, and (checked once the run ends) a
// generation the server announced.
type Gate struct {
	vocab map[string]bool

	mu         sync.Mutex
	mismatches int
	external   int // mismatches found outside Check
	empty      int
	firstErr   string
	gens       map[uint64]bool
}

// NewGate returns a gate checking against the normalized vocabulary.
func NewGate(vocab map[string]bool) *Gate {
	return &Gate{vocab: vocab, gens: map[uint64]bool{}}
}

// Check validates one 200 response body for request r. A mismatch is
// counted and returned.
func (g *Gate) Check(r Req, body []byte) (suggestResponse, error) {
	var resp suggestResponse
	err := json.Unmarshal(body, &resp)
	if err == nil {
		err = g.validate(r, resp)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if err != nil {
		g.fail(err)
		return resp, err
	}
	g.gens[resp.Generation] = true
	if len(resp.Suggestions) == 0 {
		g.empty++
	}
	return resp, nil
}

func (g *Gate) validate(r Req, resp suggestResponse) error {
	if len(resp.Suggestions) > r.K || len(resp.Diversified) > r.K {
		return fmt.Errorf("%s: %d suggestions for k=%d", r.ID, len(resp.Suggestions), r.K)
	}
	if len(resp.Suggestions) != len(resp.Diversified) {
		return fmt.Errorf("%s: personalized list has %d items, diversified %d", r.ID, len(resp.Suggestions), len(resp.Diversified))
	}
	in := querylog.NormalizeQuery(r.Query)
	seen := make(map[string]bool, len(resp.Suggestions))
	for _, s := range resp.Suggestions {
		n := querylog.NormalizeQuery(s)
		switch {
		case seen[n]:
			return fmt.Errorf("%s: duplicate suggestion %q", r.ID, s)
		case n == in:
			return fmt.Errorf("%s: suggestion echoes the input query %q", r.ID, s)
		case !g.vocab[n]:
			return fmt.Errorf("%s: suggestion %q is not in the log vocabulary", r.ID, s)
		}
		seen[n] = true
	}
	for _, s := range resp.Diversified {
		if !seen[querylog.NormalizeQuery(s)] {
			return fmt.Errorf("%s: personalized list is not a permutation of the diversified list", r.ID)
		}
	}
	return nil
}

// Fail counts a mismatch found outside Check (probe parity, replica
// parity, generation audit).
func (g *Gate) Fail(err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.external++
	g.fail(err)
}

func (g *Gate) fail(err error) {
	g.mismatches++
	if g.firstErr == "" {
		g.firstErr = err.Error()
	}
}

// AuditGenerations counts every response generation that is not in
// announced (the generations /v1/stats and the refresh/learn responses
// reported) as a mismatch.
func (g *Gate) AuditGenerations(announced map[uint64]bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for gen := range g.gens {
		if !announced[gen] {
			g.external++
			g.fail(fmt.Errorf("response generation %d was never announced by the server", gen))
		}
	}
}

// Mismatches returns the mismatch count and the first mismatch seen.
func (g *Gate) Mismatches() (int, string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.mismatches, g.firstErr
}

// External returns how many mismatches were found outside Check: they
// are failed operations no phase accounted for.
func (g *Gate) External() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.external
}

// Empty returns how many checked responses carried no suggestions.
func (g *Gate) Empty() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.empty
}

// sameLists reports whether two answers carry identical lists.
func sameLists(a, b suggestResponse) bool {
	return slices.Equal(a.Suggestions, b.Suggestions) && slices.Equal(a.Diversified, b.Diversified)
}
