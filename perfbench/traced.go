package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/admission"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/hittingtime"
	"repro/internal/profile"
	"repro/internal/querylog"
	"repro/internal/regularize"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/snapwire"
	"repro/internal/sparse"
	"repro/internal/topicmodel"
)

// The engine configuration cmd/pqsda builds with its default flags
// (-budget 200, -topics 10, -seed 1, -workers 1, -precision float64).
const (
	compactBudget = 200
	upmTopics     = 10
	upmIterations = 60
	engineSeed    = 1
)

func engineConfig(refreshMode string) pqsda.Config {
	return pqsda.Config{
		CompactBudget:      compactBudget,
		Topics:             upmTopics,
		TrainingIterations: upmIterations,
		Seed:               engineSeed,
		Workers:            1,
		RefreshMode:        refreshMode,
		Precision:          "float64",
	}
}

// inProcessRequests bounds the in-process traced replay of the steady
// stream.
const inProcessRequests = 400

// Span is one timed call: name, start, end, parent span (−1 for a
// root) and the request it served.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	RID    string `json:"rid"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the tracer's epoch
	End    int64  `json:"endNs"`
	// Source is "loopback" for spans of traced HTTP requests (client
	// span plus the server's own debug=trace spans) and "inprocess"
	// for the in-process replay.
	Source string `json:"source"`
}

// spanStore keeps spans in memory until the run ends.
type spanStore struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func (s *spanStore) add(source, rid, name string, parent int, start, end time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := len(s.spans)
	s.spans = append(s.spans, Span{ID: id, Parent: parent, RID: rid, Name: name,
		Start: start.Sub(s.epoch).Nanoseconds(), End: end.Sub(s.epoch).Nanoseconds(), Source: source})
	return id
}

// timed runs fn inside a span and returns the span id.
func (s *spanStore) timed(rid, name string, parent int, fn func()) int {
	t0 := time.Now()
	fn()
	return s.add("inprocess", rid, name, parent, t0, time.Now())
}

// tracer is the traced run: the same request streams driven through
// each module's public entry points in-process, one span per call.
type tracer struct {
	r     *run
	spans spanStore
	log   *querylog.Log // the build log as the server read it
	eng   *core.Engine  // reference engine, same log and config as the server

	// service are the send→answer times (ms) of the steady phase's
	// untraced loopback requests.
	svcMu   sync.Mutex
	service []float64
}

// newTracer times the set-up modules on the build log and builds the
// reference engine.
func newTracer(r *run, logPath string) (*tracer, error) {
	t := &tracer{r: r, spans: spanStore{epoch: time.Now()}}
	f, err := os.Open(logPath)
	if err != nil {
		return nil, err
	}
	t.log, err = querylog.ReadTSV(bufio.NewReader(f))
	f.Close()
	if err != nil {
		return nil, err
	}
	var cleaned *querylog.Log
	var sessions []querylog.Session
	var corpus *topicmodel.Corpus
	root := t.spans.add("inprocess", "setup", "setup", -1, time.Now(), time.Now())
	r.m["querylog.clean_ms"] = t.ms("setup", "querylog.clean", root, func() {
		cleaned, _ = querylog.Clean(t.log, querylog.CleanerConfig{})
	})
	r.m["querylog.sessionize_ms"] = t.ms("setup", "querylog.sessionize", root, func() {
		sessions = querylog.Sessionize(cleaned, querylog.SessionizerConfig{})
	})
	r.m["bipartite.build_ms"] = t.ms("setup", "bipartite.build", root, func() {
		bipartite.BuildFromSessions(sessions, bipartite.CFIQF)
	})
	r.m["topicmodel.train_s"] = t.ms("setup", "topicmodel.train", root, func() {
		corpus = topicmodel.BuildCorpus(sessions, nil)
		topicmodel.TrainUPM(corpus, topicmodel.UPMConfig{K: upmTopics, Iterations: upmIterations, Seed: engineSeed, Workers: 1})
	}) / 1e3
	mode := "full"
	if r.o.Workload == IngestRefresh {
		mode = "delta"
	}
	t.spans.timed("setup", "core.new_engine", root, func() {
		t.eng, err = pqsda.NewEngine(t.log, engineConfig(mode))
	})
	if err != nil {
		return nil, err
	}
	t.eng.EnableCache(4096, 0)
	t.spans.spans[root].End = time.Since(t.spans.epoch).Nanoseconds()
	return t, nil
}

// ms times fn in a span and returns its duration in ms.
func (t *tracer) ms(rid, name string, parent int, fn func()) float64 {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.spans.add("inprocess", rid, name, parent, t0, t0.Add(d))
	return float64(d) / 1e6
}

// coreRequest converts a stream request into the engine's request the
// way the server's validation does.
func coreRequest(q Req) core.SuggestRequest {
	return core.SuggestRequest{User: q.User, Query: q.Query, Context: q.Context, At: q.At, K: q.K, NoCache: q.NoCache}
}

// parity asks every probe uncached from the server and from the
// reference engine; the answers must be identical.
func (t *tracer) parity(cli *Client) {
	ph := &Phase{Name: "parity/in-process"}
	defer func() { t.r.phases = append(t.r.phases, ph) }()
	for i, p := range t.r.w.Probes(probeCount) {
		q := Req{ID: fmt.Sprintf("parity-%d", i), User: p.User, Query: p.Query, K: suggestK, NoCache: true}
		a, err := cli.Suggest(t.r.ctx, q, "", t.r.gate)
		if !t.r.op(ph, err) {
			continue
		}
		res, err := t.eng.Do(t.r.ctx, coreRequest(q))
		if err != nil && !errors.Is(err, core.ErrUnknownQuery) {
			t.r.gate.Fail(fmt.Errorf("%s: in-process Engine.Do: %v", q.ID, err))
			continue
		}
		if !slices.Equal(a.Suggestions, nonNil(res.Suggestions)) || !slices.Equal(a.Diversified, nonNil(res.Diversified)) {
			t.r.gate.Fail(fmt.Errorf("%s: server answered %v, in-process Engine.Do %v", q.ID, a.Suggestions, res.Suggestions))
		}
	}
}

func nonNil(s []string) []string {
	if s == nil {
		return []string{}
	}
	return s
}

// loopback records a traced HTTP request: the client span and, as its
// descendants, the server's own spans from the debug=trace payload.
func (t *tracer) loopback(rid string, start, end time.Time, tr *traceSnapshot) {
	client := t.spans.add("loopback", rid, "http.loopback", -1, start, end)
	if tr == nil {
		return
	}
	type iv struct {
		name       string
		start, end time.Time
	}
	ivs := make([]iv, len(tr.Spans))
	for i, s := range tr.Spans {
		st := tr.Start.Add(time.Duration(s.StartOffsetMS * 1e6))
		ivs[i] = iv{"server." + s.Name, st, st.Add(time.Duration(s.DurationMS * 1e6))}
	}
	// The payload is flat; nest each span under the innermost earlier
	// span that contains it.
	sort.SliceStable(ivs, func(i, j int) bool {
		if !ivs[i].start.Equal(ivs[j].start) {
			return ivs[i].start.Before(ivs[j].start)
		}
		return ivs[i].end.After(ivs[j].end)
	})
	var stack []int
	var ends []time.Time
	for _, s := range ivs {
		for len(stack) > 0 && s.start.After(ends[len(ends)-1]) {
			stack, ends = stack[:len(stack)-1], ends[:len(ends)-1]
		}
		parent := client
		if len(stack) > 0 {
			parent = stack[len(stack)-1]
		}
		id := t.spans.add("loopback", rid, s.name, parent, s.start, s.end)
		stack, ends = append(stack, id), append(ends, s.end)
	}
}

// recordService keeps the send→answer time of an untraced steady
// request.
func (t *tracer) recordService(ms float64) {
	t.svcMu.Lock()
	t.service = append(t.service, ms)
	t.svcMu.Unlock()
}

// server derives the per-layer metrics read from the server's own
// telemetry: admission and cache counters, runtime memstats, and the
// loopback cost and tracing overhead of the steady phase.
func (t *tracer) server(before, after Counters, steady *Phase) {
	m := t.r.m
	m["admission.admitted"] = before.Delta(after, "stats.admission.admitted")
	for _, k := range []string{"stats.admission.shedOverloaded", "stats.admission.shedRateLimitedUser", "stats.admission.shedRateLimitedIP"} {
		m["admission.shed"] += before.Delta(after, k)
	}
	m["suggestcache.coalesced"] = before.Delta(after, "stats.cache.coalesced")
	m["runtime.gc_pause_ms"] = before.Delta(after, "memstats.PauseTotalNs") / 1e6
	m["runtime.mallocs_per_req"] = ratio(before.Delta(after, "memstats.Mallocs"), float64(steady.Sent))
	m["server.loopback_us.p50"] = median(t.service) * 1e3 // the handler part is subtracted in inProcess
	m["trace.overhead_ms"] = median(steady.Traced) - median(steady.Untraced)
	t.r.logf("tracing overhead: traced suggest p50 %.4f ms (n=%d) vs untraced %.4f ms (n=%d)",
		median(steady.Traced), len(steady.Traced), median(steady.Untraced), len(steady.Untraced))
}

// heapAllocs reads the cumulative count of heap objects allocated.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// inProcess replays the steady stream through the in-process handler,
// Engine.Do and the module entry points, replays the maintenance cycles
// through the build, fold-in, batch and snapshot entry points, then
// derives the per-layer metrics, prints the self-time tables and
// writes the spans out.
func (t *tracer) inProcess() error {
	ctx := t.r.ctx
	m := t.r.m
	srv := server.New(t.eng, io.Discard)
	srv.SetRequestTimeout(5 * time.Second)
	srv.SetBatchSolve(true)
	srv.SetSlowQueryThreshold(250 * time.Millisecond)
	srv.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err := srv.SetBrownoutStrategy("relevance"); err != nil {
		return err
	}
	srv.SetAdmission(admission.DefaultConfig())
	srv.EnableSLO(pqsda.DefaultSLOConfig())
	defer srv.Close()
	h := srv.Handler()

	regCfg := regularize.Config{Solver: sparse.SolveOptions{Workers: 1, Precision: sparse.PrecisionFloat64}}
	hitCfg := hittingtime.Config{Workers: 1, Precision: sparse.PrecisionFloat64}
	div, err := diversify.New(diversify.Default, diversify.Options{Hitting: hitCfg})
	if err != nil {
		return err
	}

	// Engine.Do runs on a copy of the serving engine loaded from its
	// snapshot image: same state, but its own suggestion and compact
	// caches, so neither layer's call warms the other's. The warm-up
	// fills both caches as it filled the server's.
	ec, err := loadedCopy(srv.Engine())
	if err != nil {
		return err
	}
	for _, q := range t.r.warmReqs {
		for _, e := range []*core.Engine{t.eng, ec} {
			if _, err := e.Do(ctx, coreRequest(q)); err != nil && !errors.Is(err, core.ErrUnknownQuery) {
				return fmt.Errorf("in-process warm-up %s: %w", q.ID, err)
			}
		}
	}
	steps := t.r.steps
	if steps == nil {
		for i := range t.r.steadyReqs {
			steps = append(steps, step{read: i})
		}
	}
	var handlerUS, allocs, doUS, compactUS, solveUS, selectUS, sweepUS, personalizeUS, iters, rounds, cgBytes []float64
	replayed, replayMatch, reads := 0, 0, 0
	for _, st := range steps {
		if st.write != nil {
			// Writes replay through the handler too, so the in-process
			// caches see the same engine swaps as the server's did.
			if t.write(h, *st.write) {
				if ec, err = loadedCopy(srv.Engine()); err != nil {
					return err
				}
				// One untimed request absorbs the loaded copy's lazy
				// first-use set-up, which the server's swap does not pay.
				if _, err := ec.Do(ctx, coreRequest(t.r.warmReqs[0])); err != nil && !errors.Is(err, core.ErrUnknownQuery) {
					return err
				}
			}
			continue
		}
		if reads == inProcessRequests {
			break
		}
		reads++
		q := t.r.steadyReqs[st.read]
		rid := q.ID
		root := t.spans.add("inprocess", rid, "request", -1, time.Now(), time.Now())

		// The engine, with its stage fields as child spans.
		t0 := time.Now()
		res, err := ec.Do(ctx, coreRequest(q))
		t1 := time.Now()
		do := t.spans.add("inprocess", rid, "core.do", root, t0, t1)
		doUS = append(doUS, float64(t1.Sub(t0))/1e3)
		at := t0
		for _, st := range []struct {
			name string
			d    time.Duration
		}{{"core.stage.compact", res.CompactTime}, {"core.stage.solve", res.SolveTime}, {"core.stage.hitting", res.HittingTime}, {"core.stage.personalize", res.PersonalizeTime}} {
			if st.d > 0 {
				t.spans.add("inprocess", rid, st.name, do, at, at.Add(st.d))
				at = at.Add(st.d)
			}
		}
		if err != nil && !errors.Is(err, core.ErrUnknownQuery) {
			t.r.gate.Fail(fmt.Errorf("%s: Engine.Do: %v", rid, err))
		}

		// The HTTP handler without a socket.
		hreq := httptest.NewRequest(http.MethodPost, "/v1/suggest", bytes.NewReader(q.body("")))
		hreq.Header.Set("Content-Type", "application/json")
		hreq.Header.Set("X-Request-Id", rid)
		rec := httptest.NewRecorder()
		a0 := heapAllocs()
		t0 = time.Now()
		h.ServeHTTP(rec, hreq)
		t1 = time.Now()
		allocs = append(allocs, float64(heapAllocs()-a0))
		t.spans.add("inprocess", rid, "server.handler", root, t0, t1)
		handlerUS = append(handlerUS, float64(t1.Sub(t0))/1e3)
		if rec.Code != http.StatusOK {
			t.r.gate.Fail(fmt.Errorf("%s: in-process handler status %d", rid, rec.Code))
		} else if _, err := t.r.gate.Check(q, rec.Body.Bytes()); err != nil {
			t.r.gate.Fail(err)
		}

		// The modules, replayed on a cache miss exactly as the pipeline
		// runs them.
		snap := ec.Snapshot()
		if err == nil && !res.CacheHit {
			replay := t.spans.add("inprocess", rid, "pipeline.replay", root, time.Now(), time.Now())
			out := t.replayPipeline(ctx, rid, replay, snap, q, regCfg, hitCfg, div)
			t.spans.spans[replay].End = time.Since(t.spans.epoch).Nanoseconds()
			if out.ok {
				replayed++
				if slices.Equal(out.selected, res.Diversified) {
					replayMatch++
				}
				compactUS = append(compactUS, out.compact)
				solveUS = append(solveUS, out.solve)
				selectUS = append(selectUS, out.sel)
				sweepUS = append(sweepUS, out.sweep)
				iters = append(iters, float64(out.iterations))
				rounds = append(rounds, float64(max(0, len(out.selected)-1)))
				cgBytes = append(cgBytes, out.cgBytes)
			}
		}
		if err == nil && snap.Profiles != nil && snap.Symbols != nil && snap.Profiles.Theta(q.User) != nil && len(res.DiversifiedIDs) > 0 {
			t0 = time.Now()
			toks := make([][]string, len(res.DiversifiedIDs))
			for i, id := range res.DiversifiedIDs {
				toks[i] = snap.Symbols.Tokens(id)
			}
			profile.BordaMergePerm(snap.Profiles.PreferencePerm(q.User, toks, profile.Posterior))
			t1 = time.Now()
			t.spans.add("inprocess", rid, "profile.personalize", root, t0, t1)
			personalizeUS = append(personalizeUS, float64(t1.Sub(t0))/1e3)
		}
		t.spans.spans[root].End = time.Since(t.spans.epoch).Nanoseconds()
	}
	m["server.handler_us.p50"] = median(handlerUS)
	m["server.loopback_us.p50"] -= m["server.handler_us.p50"]
	m["server.allocs_per_req"] = mean(allocs)
	m["core.do_us.p50"] = median(doUS)
	m["core.do_us.p99"] = quantile(doUS, 0.99)
	m["bipartite.compact_us"] = median(compactUS)
	m["regularize.solve_us"] = median(solveUS)
	m["regularize.cg_iterations"] = mean(iters)
	m["sparse.cg_bytes_per_solve"] = mean(cgBytes)
	m["diversify.select_us"] = median(selectUS)
	m["hittingtime.rounds"] = mean(rounds)
	m["randomwalk.sweep_us"] = median(sweepUS)
	m["profile.personalize_us"] = median(personalizeUS)
	t.r.logf("in-process replay: %d requests through the handler and Engine.Do, %d cache misses replayed module by module (%d with the pipeline's exact list), %d personalized",
		reads, replayed, replayMatch, len(personalizeUS))

	if err := t.maintenanceModules(ctx); err != nil {
		return err
	}
	t.selfTimes()
	return t.export()
}

// write replays one write operation through the in-process handler and
// reports whether it swapped the serving engine (a maintenance cycle).
func (t *tracer) write(h http.Handler, o writeOp) bool {
	serve := func(rid, path string, body any) {
		b, _ := json.Marshal(body) // maps and slices of strings: cannot fail
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		t.spans.timed(rid, "server.write", -1, func() { h.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK {
			t.r.gate.Fail(fmt.Errorf("in-process %s: status %d", path, rec.Code))
		}
	}
	if e := o.entry; e != nil {
		serve("write", "/v1/log", map[string]string{"user": e.UserID, "query": e.Query, "clickedUrl": e.ClickedURL, "at": e.Time.UTC().Format(time.RFC3339)})
		return false
	}
	serve("cycle", "/v1/refresh", map[string]string{})
	for _, u := range o.cycle.users {
		serve("cycle", "/v1/learn", map[string]string{"user": u})
	}
	items := make([]wireRequest, len(o.cycle.batch))
	for i, q := range o.cycle.batch {
		items[i] = q.wire()
	}
	serve("cycle", "/v1/suggest/batch", map[string]any{"requests": items})
	return true
}

// loadedCopy loads a copy of e from its snapshot image, with its own
// 4096-entry suggestion cache (the server's default).
func loadedCopy(e *core.Engine) (*core.Engine, error) {
	img, err := e.WireImage()
	if err != nil {
		return nil, err
	}
	c, err := core.LoadEngine(bytes.NewReader(img))
	if err != nil {
		return nil, err
	}
	c.EnableCache(4096, 0)
	return c, nil
}

// replayOut is what one module-by-module pipeline replay measured.
type replayOut struct {
	ok                         bool
	selected                   []string
	compact, solve, sel, sweep float64 // µs
	iterations                 int
	cgBytes                    float64
}

// replayPipeline runs one uncached suggestion through the module entry
// points the engine composes: seed resolution, BuildCompact, the Eq. 15
// FirstCandidate solve, the relevance gate and the hitting-time Select,
// plus one hitting-time sweep to time the random-walk kernel alone.
func (t *tracer) replayPipeline(ctx context.Context, rid string, parent int, snap *snapshot.Snapshot, q Req, regCfg regularize.Config, hitCfg hittingtime.Config, div diversify.Diversifier) replayOut {
	var out replayOut
	rep := snap.Rep
	in, ok := rep.QueryID(q.Query)
	if !ok {
		return out
	}
	at := q.At
	if at.IsZero() {
		at = time.Now()
	}
	seeds := []int{in}
	var before []time.Duration
	for _, c := range q.Context {
		if id, ok := rep.QueryID(c.Query); ok {
			seeds = append(seeds, id)
			before = append(before, max(0, at.Sub(c.Time)))
		}
	}
	var compact *bipartite.Compact
	out.compact = t.us(rid, "bipartite.compact", parent, func() {
		compact = rep.BuildCompact(seeds, bipartite.CompactConfig{Budget: compactBudget})
	})
	if compact.Size() < 2 {
		return out
	}
	local, ok := compact.LocalOf[in]
	if !ok {
		return out
	}
	seedLocals := []int{local}
	var rctx []regularize.ContextEntry
	for i, s := range seeds[1:] {
		if l, ok := compact.LocalOf[s]; ok {
			seedLocals = append(seedLocals, l)
			rctx = append(rctx, regularize.ContextEntry{Local: l, Before: before[i]})
		}
	}
	f0 := regularize.ContextVector(compact.Size(), local, rctx, regCfg.Lambda)
	var reg regularize.Result
	var err error
	out.solve = t.us(rid, "regularize.solve", parent, func() {
		reg, err = regularize.FirstCandidateCtx(ctx, compact, f0, seedLocals, regCfg)
	})
	if err != nil || reg.First < 0 {
		return out
	}
	out.iterations = reg.Iterations
	// Bytes a CG iteration streams, computed (not measured): the SpMV
	// reads 16 B per stored entry (value + column index), and the
	// iteration makes about eight passes over n-length float64 vectors.
	sys := regularize.System(compact, regCfg)
	out.cgBytes = float64(reg.Iterations) * (16*float64(sys.NNZ()) + 64*float64(sys.Rows()))
	pool := reg.Rank(seedLocals)
	poolSize := max(3*q.K, 20)
	if poolSize > len(pool) {
		poolSize = len(pool)
	}
	var selected []int
	out.sel = t.us(rid, "diversify.select", parent, func() {
		selected, err = div.Select(ctx, diversify.Request{
			Compact: compact, Query: q.Query, First: reg.First, K: q.K,
			Excluded: seedLocals, Pool: pool[:poolSize], Relevance: reg.F,
		})
	})
	if err != nil {
		return out
	}
	walker := hittingtime.WalkerFor(compact, hitCfg)
	out.sweep = t.us(rid, "randomwalk.sweep", parent, func() {
		walker.HittingTime(map[int]bool{reg.First: true})
	})
	out.selected = make([]string, len(selected))
	for i, s := range selected {
		out.selected[i] = compact.QueryName(s)
	}
	out.ok = true
	return out
}

func (t *tracer) us(rid, name string, parent int, fn func()) float64 {
	return t.ms(rid, name, parent, fn) * 1e3
}

// maintenanceModules replays the run's maintenance cycles through the
// write-side entry points: the incremental snapshot build and its
// symbol table, the profile fold-in, the batched engine path, and the
// snapshot image load.
func (t *tracer) maintenanceModules(ctx context.Context) error {
	m := t.r.m
	b := snapshot.Builder{Weighting: bipartite.CFIQF}
	prev := t.eng.Snapshot()
	segs := prev.Stats.Segments
	var deltaMS, deltaAllocs, symbolsMS, foldMS, batchMS, lanes []float64
	for i, c := range t.r.cycles {
		rid := fmt.Sprintf("cycle-%d", i)
		root := t.spans.add("inprocess", rid, "maintenance", -1, time.Now(), time.Now())
		var next *snapshot.Snapshot
		var err error
		a0 := heapAllocs()
		d := t.ms(rid, "snapshot.delta", root, func() {
			segs++
			next, err = b.Delta(prev, c.entries, segs)
		})
		if err != nil {
			return fmt.Errorf("snapshot delta build: %w", err)
		}
		deltaAllocs = append(deltaAllocs, float64(heapAllocs()-a0))
		deltaMS = append(deltaMS, d)
		symbolsMS = append(symbolsMS, t.ms(rid, "snapshot.symbols", root, func() { snapshot.BuildSymbols(next.Rep) }))
		prev = next

		if up := t.eng.Profiles(); up != nil {
			for _, user := range c.users {
				var entries []querylog.Entry
				for _, e := range t.log.Entries {
					if e.UserID == user {
						entries = append(entries, e)
					}
				}
				for _, cc := range t.r.cycles[:i+1] {
					for _, e := range cc.entries {
						if e.UserID == user {
							entries = append(entries, e)
						}
					}
				}
				foldMS = append(foldMS, t.ms(rid, "topicmodel.foldin", root, func() {
					l := &querylog.Log{Entries: entries}
					sessions := querylog.Sessionize(l, querylog.SessionizerConfig{})
					model := topicmodel.SessionsForFoldIn(t.eng.Corpus(), sessions, nil)
					up.UPM().Clone().FoldIn(user, model, 0, engineSeed)
				}))
			}
		}

		creqs := make([]core.SuggestRequest, len(c.batch))
		for j, q := range c.batch {
			creqs[j] = coreRequest(q)
		}
		fresh := t.eng.Clone() // a new generation: every item misses, as after a refresh
		var results []core.Result
		batchMS = append(batchMS, t.ms(rid, "core.dobatch", root, func() { results, _ = fresh.DoBatch(ctx, creqs) }))
		groups := map[string]bool{}
		for j, res := range results {
			if res.SolveBatchSize > 0 && !groups[core.SolveSignature(creqs[j])] {
				groups[core.SolveSignature(creqs[j])] = true
				lanes = append(lanes, float64(res.SolveBatchSize))
			}
		}
		t.spans.spans[root].End = time.Since(t.spans.epoch).Nanoseconds()
	}
	m["snapshot.delta_build_ms"] = median(deltaMS)
	m["snapshot.delta_allocs"] = median(deltaAllocs)
	m["snapshot.symbols_ms"] = median(symbolsMS)
	m["topicmodel.foldin_ms"] = median(foldMS)
	m["core.dobatch_ms"] = median(batchMS)
	m["sparse.multi_lanes_per_solve"] = mean(lanes)

	img, err := t.eng.WireImage()
	if err != nil {
		return err
	}
	var loads []float64
	for i := 0; i < 5; i++ {
		var lerr error
		loads = append(loads, t.ms("snapshot", "snapwire.load", -1, func() { _, lerr = snapwire.Load(img) }))
		if lerr != nil {
			return fmt.Errorf("loading the snapshot image: %w", lerr)
		}
	}
	m["snapwire.load_ms"] = median(loads)
	m["snapwire.image_bytes"] = float64(len(img))
	return nil
}

// selfTimes prints, per span source, each span name's call count and
// self time (its duration minus the part its children cover), and the
// share of Engine.Do time its stage fields leave unexplained.
func (t *tracer) selfTimes() {
	spans := t.spans.spans
	children := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		var ivs [][2]int64
		for _, c := range children[s.ID] {
			ivs = append(ivs, [2]int64{max(spans[c].Start, s.Start), min(spans[c].End, s.End)})
		}
		self[s.ID] = s.End - s.Start - covered(ivs)
	}
	type row struct {
		n             int
		self, dur     []float64
		total, totalD float64
	}
	for _, source := range []string{"loopback", "inprocess"} {
		rows := map[string]*row{}
		var names []string
		var rootTotal float64
		for _, s := range spans {
			if s.Source != source {
				continue
			}
			rw := rows[s.Name]
			if rw == nil {
				rw = &row{}
				rows[s.Name] = rw
				names = append(names, s.Name)
			}
			rw.n++
			rw.self = append(rw.self, float64(self[s.ID])/1e3)
			rw.dur = append(rw.dur, float64(s.End-s.Start)/1e3)
			rw.total += float64(self[s.ID]) / 1e6
			rw.totalD += float64(s.End-s.Start) / 1e6
			if s.Parent < 0 {
				rootTotal += float64(s.End-s.Start) / 1e6
			}
		}
		sort.Strings(names)
		t.r.logf("self times (%s spans): %-26s %7s %12s %12s %12s %8s", source, "span", "calls", "self p50 µs", "self ms", "dur ms", "share")
		for _, n := range names {
			rw := rows[n]
			t.r.logf("self times (%s spans): %-26s %7d %12.2f %12.2f %12.2f %7.1f%%", source, n, rw.n, median(rw.self), rw.total, rw.totalD, 100*ratio(rw.total, rootTotal))
		}
		if source == "inprocess" && rows["core.do"] != nil {
			do := rows["core.do"]
			t.r.m["core.unexplained_share"] = ratio(do.total, do.totalD)
			t.r.logf("core.do vs stage fields: %.2f ms of %.2f ms Engine.Do time (%.1f%%) lies outside the compact/solve/hitting/personalize stage times; gap p50 %.2f µs",
				do.total, do.totalD, 100*t.r.m["core.unexplained_share"], median(do.self))
		}
	}
}

// covered is the length of the union of the intervals.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, end int64
	end = -1 << 62
	var start int64
	for _, iv := range ivs {
		if iv[1] <= iv[0] {
			continue
		}
		if iv[0] > end {
			if end > start {
				total += end - start
			}
			start, end = iv[0], iv[1]
		} else if iv[1] > end {
			end = iv[1]
		}
	}
	if end > start {
		total += end - start
	}
	return total
}

// export writes the spans as JSON lines into the run's work directory.
func (t *tracer) export() error {
	path := filepath.Join(t.r.o.Work, fmt.Sprintf("spans-%s-seed%d.jsonl", t.r.o.Workload, t.r.o.Seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	t.r.logf("spans: %d written to %s", len(t.spans.spans), path)
	return f.Close()
}
