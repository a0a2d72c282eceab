package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/querylog"
	"repro/internal/synth"
)

// Scale sizes the synthetic world. The full scale is the benchmark's;
// the tiny one keeps the harness self-test fast.
type Scale struct {
	Users, Sessions int
	// HeldUsers is how many whole users the ingest-refresh build log
	// holds back; HeldShare is the share of the remaining sessions
	// (the latest ones) held back with them.
	HeldUsers int
	HeldShare float64
}

var scales = map[string]Scale{
	"full": {Users: 200, Sessions: 30, HeldUsers: 8, HeldShare: 0.10},
	"tiny": {Users: 24, Sessions: 8, HeldUsers: 2, HeldShare: 0.10},
}

// World is the generated universe of one run: the synthetic log with
// its ground truth, the log the server is started on, and the entries
// the ingest-refresh workload replays through the write API.
type World struct {
	Seed  int64
	Synth *synth.World
	// Full is the whole generated log as the server reads it back (TSV
	// keeps whole seconds, so every consumer sees the same timestamps).
	Full *querylog.Log
	// Build is the log the server starts from: Full for the read
	// workloads, Full minus Held for ingest-refresh.
	Build *querylog.Log
	// Held are the held-back entries in time order (nil unless split).
	Held []querylog.Entry
	// HeldUsers are the users whose whole history is held back.
	HeldUsers []string
	// Vocab is every normalized query of Full: a served suggestion must
	// be one of them.
	Vocab map[string]bool
	// Queries are the distinct normalized queries of Build with their
	// frequencies, most frequent first (ties by name).
	Queries []QueryFreq
	// Users are the users of Build, sorted.
	Users []string
	// Sessions are the sessions of Build with at least two entries:
	// the source of tail-context search contexts.
	Sessions []querylog.Session
	// End is the latest timestamp in Full; request times start after it.
	End time.Time
}

// QueryFreq is one distinct query and its frequency in the build log.
type QueryFreq struct {
	Query string
	Count int
}

// NewWorld generates the world for seed. With split set, the build log
// holds back the latest HeldShare of sessions plus HeldUsers whole users.
func NewWorld(seed int64, sc Scale, split bool) (*World, error) {
	sw := synth.Generate(synth.Config{Seed: seed, NumUsers: sc.Users, SessionsPerUser: sc.Sessions})
	var buf bytes.Buffer
	if err := sw.Log.WriteTSV(&buf); err != nil {
		return nil, fmt.Errorf("encoding log: %w", err)
	}
	full, err := querylog.ReadTSV(&buf)
	if err != nil {
		return nil, fmt.Errorf("decoding log: %w", err)
	}
	full.Sort()
	w := &World{Seed: seed, Synth: sw, Full: full, Build: full, Vocab: map[string]bool{}}
	for _, e := range full.Entries {
		w.Vocab[querylog.NormalizeQuery(e.Query)] = true
		if e.Time.After(w.End) {
			w.End = e.Time
		}
	}
	if split {
		w.split(rand.New(rand.NewSource(seed^0x5eed)), sc)
	}
	freq := w.Build.QueryFrequency()
	for q, c := range freq {
		w.Queries = append(w.Queries, QueryFreq{q, c})
	}
	sort.Slice(w.Queries, func(i, j int) bool {
		if w.Queries[i].Count != w.Queries[j].Count {
			return w.Queries[i].Count > w.Queries[j].Count
		}
		return w.Queries[i].Query < w.Queries[j].Query
	})
	w.Users = w.Build.Users()
	sort.Strings(w.Users)
	cp := &querylog.Log{Entries: append([]querylog.Entry(nil), w.Build.Entries...)}
	for _, s := range querylog.Sessionize(cp, querylog.SessionizerConfig{}) {
		if len(s.Entries) >= 2 {
			w.Sessions = append(w.Sessions, s)
		}
	}
	if len(w.Queries) == 0 || len(w.Sessions) == 0 {
		return nil, fmt.Errorf("world for seed %d is empty", seed)
	}
	return w, nil
}

// split moves the held-back users and the latest sessions of everyone
// else from Build into Held.
func (w *World) split(rng *rand.Rand, sc Scale) {
	users := w.Full.Users()
	sort.Strings(users)
	held := map[string]bool{}
	for _, i := range rng.Perm(len(users))[:sc.HeldUsers] {
		held[users[i]] = true
		w.HeldUsers = append(w.HeldUsers, users[i])
	}
	sort.Strings(w.HeldUsers)
	cp := &querylog.Log{Entries: append([]querylog.Entry(nil), w.Full.Entries...)}
	sessions := querylog.Sessionize(cp, querylog.SessionizerConfig{})
	var rest []querylog.Session
	for _, s := range sessions {
		if !held[s.UserID] {
			rest = append(rest, s)
		}
	}
	sort.SliceStable(rest, func(i, j int) bool { return rest[i].Entries[0].Time.Before(rest[j].Entries[0].Time) })
	cut := len(rest) - int(float64(len(rest))*sc.HeldShare)
	late := map[string]time.Time{} // per user: first held-back session start
	for _, s := range rest[cut:] {
		if t, ok := late[s.UserID]; !ok || s.Entries[0].Time.Before(t) {
			late[s.UserID] = s.Entries[0].Time
		}
	}
	build := &querylog.Log{}
	for _, e := range w.Full.Entries {
		t, isLate := late[e.UserID]
		if held[e.UserID] || (isLate && !e.Time.Before(t)) {
			w.Held = append(w.Held, e)
			continue
		}
		build.Append(e)
	}
	sort.SliceStable(w.Held, func(i, j int) bool { return w.Held[i].Time.Before(w.Held[j].Time) })
	w.Build = build
}

// WriteBuildLog writes the build log as TSV for the server's -log flag.
func (w *World) WriteBuildLog(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := w.Build.WriteTSV(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// Req is one suggestion request of a workload stream.
type Req struct {
	ID      string
	User    string
	Query   string
	Context []querylog.Entry
	At      time.Time // zero: the server's now
	K       int
	NoCache bool
}

// seedKey identifies the seed set a request resolves to (input query
// plus context queries) — what the compact-representation cache keys on.
func (r Req) seedKey() string {
	parts := []string{querylog.NormalizeQuery(r.Query)}
	for _, c := range r.Context {
		parts = append(parts, querylog.NormalizeQuery(c.Query))
	}
	return strings.Join(parts, "\x1f")
}

const suggestK = 10

// headQueries is how many of the most frequent build-log queries the
// head streams draw from: far fewer distinct keys than the server's
// default 4096-entry suggestion cache holds.
const headQueries = 512

// head returns the head of the query distribution.
func (w *World) head() []QueryFreq { return w.Queries[:min(headQueries, len(w.Queries))] }

// HeadStream draws n requests over the head queries in proportion to
// their build-log frequencies, from log users, without context.
func (w *World) HeadStream(rng *rand.Rand, prefix string, n int) []Req {
	head := w.head()
	cum := make([]int, len(head))
	total := 0
	for i, q := range head {
		total += q.Count
		cum[i] = total
	}
	out := make([]Req, n)
	for i := range out {
		j := sort.SearchInts(cum, rng.Intn(total)+1)
		out[i] = Req{
			ID:    fmt.Sprintf("%s-%d", prefix, i),
			User:  w.Users[rng.Intn(len(w.Users))],
			Query: head[j].Query,
			K:     suggestK,
		}
	}
	return out
}

// HeadWarm asks every head query once: what fills the suggestion cache
// before the head stream is timed.
func (w *World) HeadWarm(rng *rand.Rand, prefix string) []Req {
	head := w.head()
	out := make([]Req, len(head))
	for i, j := range rng.Perm(len(head)) {
		out[i] = Req{ID: fmt.Sprintf("%s-%d", prefix, i), User: w.Users[rng.Intn(len(w.Users))], Query: head[j].Query, K: suggestK}
	}
	return out
}

// TailStream draws n requests with queries uniform over the build
// vocabulary, each carrying a search context cut from a logged session
// and shifted in time. No two requests share a (query, context) pair,
// so no request can be a suggestion-cache hit.
func (w *World) TailStream(rng *rand.Rand, prefix string, n int, base time.Time) []Req {
	out := make([]Req, 0, n)
	seen := map[string]bool{}
	for len(out) < n {
		q := w.Queries[rng.Intn(len(w.Queries))].Query
		s := w.Sessions[rng.Intn(len(w.Sessions))]
		m := 1 + rng.Intn(min(3, len(s.Entries)))
		at := base.Add(time.Duration(len(out)) * time.Second)
		// The last context entry lands 5–300 s before the request, the
		// session's own gaps preserved behind it.
		shift := at.Add(-time.Duration(5+rng.Intn(296)) * time.Second).Sub(s.Entries[m-1].Time)
		ctx := make([]querylog.Entry, 0, m)
		for _, e := range s.Entries[:m] {
			if querylog.NormalizeQuery(e.Query) == q {
				continue
			}
			ctx = append(ctx, querylog.Entry{UserID: s.UserID, Query: e.Query, Time: e.Time.Add(shift)})
		}
		if len(ctx) == 0 {
			continue
		}
		r := Req{ID: fmt.Sprintf("%s-%d", prefix, len(out)), User: s.UserID, Query: q, Context: ctx, At: at, K: suggestK}
		key := r.seedKey()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, r)
	}
	return out
}

// WarmBatch is the ingest-refresh cache warm-up batch: heads head
// queries, each asked lanes times with the same context queries but
// different context timings, so every head query is one solve group
// with lanes right-hand sides.
func (w *World) WarmBatch(rng *rand.Rand, prefix string, heads, lanes int, base time.Time) []Req {
	var out []Req
	for h := 0; h < heads && h < len(w.Queries); h++ {
		q := w.Queries[h].Query
		s := w.Sessions[rng.Intn(len(w.Sessions))]
		var ctxQueries []string
		for _, e := range s.Entries[:min(2, len(s.Entries))] {
			if nq := querylog.NormalizeQuery(e.Query); nq != q {
				ctxQueries = append(ctxQueries, e.Query)
			}
		}
		for l := 0; l < lanes; l++ {
			r := Req{ID: fmt.Sprintf("%s-%d", prefix, len(out)), User: s.UserID, Query: q, At: base, K: suggestK}
			for i, cq := range ctxQueries {
				// Lane l puts its context 20·(l+1) s further back, a
				// different decay bucket per lane.
				back := time.Duration(30*(i+1)+20*(l+1)) * time.Second
				r.Context = append(r.Context, querylog.Entry{UserID: s.UserID, Query: cq, Time: base.Add(-back)})
			}
			out = append(out, r)
		}
	}
	return out
}

// Probe is one fixed correctness/quality probe: a query asked for a
// known user.
type Probe struct {
	User, Query string
	// Ambiguous marks a query the ground truth gives two or more
	// generating facets: the ones α-nDCG is scored on.
	Ambiguous bool
}

// Probes returns n probes: every ambiguous build-log query (two or more
// generating facets), most frequent first, then the most frequent
// remaining queries.
func (w *World) Probes(n int) []Probe {
	var amb, rest []Probe
	for i, q := range w.Queries {
		p := Probe{User: w.Users[i%len(w.Users)], Query: q.Query}
		if len(w.Synth.QueryFacets(q.Query)) >= 2 {
			p.Ambiguous = true
			amb = append(amb, p)
		} else {
			rest = append(rest, p)
		}
	}
	out := append(amb, rest...)
	return out[:min(n, len(out))]
}
