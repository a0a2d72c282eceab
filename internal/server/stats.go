package server

import (
	"expvar"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/snapwire"
)

// serverStats is the middleware's counter surface: request and error
// counters plus refresh/hot-swap accounting, all lock-free atomics.
// Latency distributions live in the per-Server obs.Registry histograms
// (see newTelemetry) — count/mean/max-only aggregates hid the tail, so
// /v1/stats now reports p50/p90/p99 from the same histograms /metrics
// exposes.
type serverStats struct {
	suggestRequests atomic.Int64
	suggestErrors   atomic.Int64
	suggestUnknown  atomic.Int64
	suggestTimeouts atomic.Int64
	// suggestCacheHits counts requests whose diversified list came from
	// the suggestion cache (batch items included).
	suggestCacheHits atomic.Int64
	// batchRequests counts /v1/suggest/batch payloads (their items are
	// counted individually in suggestRequests).
	batchRequests atomic.Int64
	// slowQueries counts suggestions over the slow-query threshold.
	slowQueries atomic.Int64

	logRequests      atomic.Int64
	feedbackRequests atomic.Int64
	learnRequests    atomic.Int64

	refreshes     atomic.Int64
	refreshErrors atomic.Int64
	// swaps counts successful engine hot-swaps (refresh + snapshot
	// adoption; /v1/learn folds in place and does not swap).
	swaps         atomic.Int64
	refreshSumNs  atomic.Int64
	lastRefreshNs atomic.Int64

	// Admission-control accounting (see admission.go).
	admitted         atomic.Int64 // requests admitted through a concurrency gate
	shedRateIP       atomic.Int64 // 429s from the per-IP token bucket
	shedRateUser     atomic.Int64 // 429s from the per-user token bucket
	shedOverloaded   atomic.Int64 // 429s from a full/timed-out gate queue
	degradedRequests atomic.Int64 // breaker-open requests routed to the cache-only path
	degradedMisses   atomic.Int64 // degraded requests with no cached list (503)
	brownoutServed   atomic.Int64 // degraded cache misses answered by the brownout strategy
	bodyTooLarge     atomic.Int64 // 413s from the request-body cap
}

func (ss *serverStats) observeRefresh(d time.Duration) {
	ss.refreshes.Add(1)
	ss.refreshSumNs.Add(d.Nanoseconds())
	ss.lastRefreshNs.Store(d.Nanoseconds())
}

func (ss *serverStats) snapshot() map[string]any {
	return map[string]any{
		"suggest": map[string]any{
			"requests":  ss.suggestRequests.Load(),
			"errors":    ss.suggestErrors.Load(),
			"unknown":   ss.suggestUnknown.Load(),
			"timeouts":  ss.suggestTimeouts.Load(),
			"cacheHits": ss.suggestCacheHits.Load(),
			"batches":   ss.batchRequests.Load(),
			"slow":      ss.slowQueries.Load(),
		},
		"log":      map[string]any{"requests": ss.logRequests.Load()},
		"feedback": map[string]any{"requests": ss.feedbackRequests.Load()},
		"learn":    map[string]any{"requests": ss.learnRequests.Load()},
		"refresh": map[string]any{
			"count":         ss.refreshes.Load(),
			"errors":        ss.refreshErrors.Load(),
			"swaps":         ss.swaps.Load(),
			"totalMs":       float64(ss.refreshSumNs.Load()) / 1e6,
			"lastRefreshMs": float64(ss.lastRefreshNs.Load()) / 1e6,
		},
		"admission": map[string]any{
			"admitted":            ss.admitted.Load(),
			"shedRateLimitedIP":   ss.shedRateIP.Load(),
			"shedRateLimitedUser": ss.shedRateUser.Load(),
			"shedOverloaded":      ss.shedOverloaded.Load(),
			"degraded":            ss.degradedRequests.Load(),
			"degradedMisses":      ss.degradedMisses.Load(),
			"brownoutServed":      ss.brownoutServed.Load(),
			"bodyTooLarge":        ss.bodyTooLarge.Load(),
		},
	}
}

// telemetry is one Server's histogram surface: a private obs.Registry
// (rendered verbatim by /metrics) plus direct handles on the histograms
// the serving path feeds. Per-instance by design — unlike expvar there
// is no process-global namespace to collide in, so every server in a
// test binary gets its own.
type telemetry struct {
	registry *obs.Registry

	// Per-stage latency histograms (seconds), one per pipeline stage of
	// the paper's Fig. 7 breakdown plus the end-to-end total.
	stageNames []string
	stages     map[string]*obs.Histogram

	// Pipeline depth histograms, fed from inside the instrumented
	// packages via the context metric sink (obs.Observe).
	cgIterations     *obs.Histogram
	cgResidual       *obs.Histogram
	hittingRounds    *obs.Histogram
	hittingWalkSteps *obs.Histogram
	// solveBatchSize records the right-hand-side count of each fresh
	// Eq. 15 solve: 1 on the single-request path, the solve-group size
	// for blocked multi-RHS solves under /v1/suggest/batch. One sample
	// per blocked solve, not per lane.
	solveBatchSize *obs.Histogram

	// Per-strategy serving counters and diversifier-Select latency,
	// pre-registered from the engine's strategy table at construction
	// time: the table is immutable while serving and clones share it, so
	// the name set is stable across hot-swaps, and pre-registration keeps
	// the serving path free of registry mutation. Strategies added via
	// core.Engine.AddDiversifier after the server was built are served
	// but not counted here.
	strategyNames    []string
	strategyRequests map[string]*atomic.Int64
	selectDuration   map[string]*obs.Histogram

	// httpDuration covers every HTTP request through the middleware.
	httpDuration *obs.Histogram
	// queueDepth records the gate wait-queue depth observed by each
	// admission attempt — the histogram that proves the queue is bounded.
	queueDepth *obs.Histogram
	// refreshDuration covers /v1/refresh rebuilds.
	refreshDuration *obs.Histogram
	// snapshotBuild* split the rebuild time by build mode and record
	// how many fresh entries each delta build folded in.
	snapshotBuildFull  *obs.Histogram
	snapshotBuildDelta *obs.Histogram
	snapshotDeltaSize  *obs.Histogram
	// snapLoad splits wire-image snapshot load time by source: mmap and
	// heap file loads (recorded by cmd/pqsda via ObserveSnapshotLoad)
	// and http adoptions (POST /v1/snapshot).
	snapLoad map[string]*obs.Histogram
}

// stageName constants keep the /v1/stats keys, the Prometheus "stage"
// label and the trace span names aligned.
var pipelineStages = []string{"compact", "solve", "hitting", "personalize", "total"}

// newTelemetry builds the registry and registers every series: the
// latency/depth histograms and counter/gauge views over the server's
// atomics, the engine generation and the suggestion-cache counters.
func newTelemetry(s *Server) *telemetry {
	reg := obs.NewRegistry()
	t := &telemetry{
		registry:   reg,
		stageNames: pipelineStages,
		stages:     make(map[string]*obs.Histogram, len(pipelineStages)),
	}
	for _, stg := range pipelineStages {
		t.stages[stg] = reg.NewHistogram("pqsda_stage_duration_seconds",
			"Latency of one suggestion pipeline stage.",
			obs.LatencyBuckets, obs.Labels{"stage": stg})
	}
	t.cgIterations = reg.NewHistogram(obs.MetricCGIterations,
		"CG iterations per Eq. 15 solve.", obs.CountBuckets, nil)
	t.cgResidual = reg.NewHistogram(obs.MetricCGResidual,
		"Final relative residual per Eq. 15 solve.", obs.ResidualBuckets, nil)
	t.hittingRounds = reg.NewHistogram(obs.MetricHittingRounds,
		"Greedy rounds per Algorithm-1 hitting-time selection.", obs.CountBuckets, nil)
	t.hittingWalkSteps = reg.NewHistogram(obs.MetricHittingWalkSteps,
		"Executed hitting-time sweeps per selection (at most rounds x truncation depth; less when the early convergence exit fires).", obs.CountBuckets, nil)
	t.solveBatchSize = reg.NewHistogram("pqsda_solve_batch_size",
		"Right-hand sides per fresh Eq. 15 solve (1 = single request, >1 = blocked multi-RHS batch solve).", obs.CountBuckets, nil)
	if eng := s.engine.Load(); eng != nil {
		t.strategyNames = eng.StrategyNames()
	}
	t.strategyRequests = make(map[string]*atomic.Int64, len(t.strategyNames))
	t.selectDuration = make(map[string]*obs.Histogram, len(t.strategyNames))
	for _, name := range t.strategyNames {
		c := &atomic.Int64{}
		t.strategyRequests[name] = c
		reg.CounterFunc("pqsda_strategy_requests_total",
			"Suggestion requests served per diversification strategy.",
			obs.Labels{"strategy": name},
			func() float64 { return float64(c.Load()) })
		t.selectDuration[name] = reg.NewHistogram("pqsda_select_duration_seconds",
			"Latency of the diversifier Select stage, per strategy.",
			obs.LatencyBuckets, obs.Labels{"strategy": name})
	}
	t.httpDuration = reg.NewHistogram("pqsda_http_request_duration_seconds",
		"Wall time of one HTTP request through the middleware.", obs.LatencyBuckets, nil)
	t.queueDepth = reg.NewHistogram("pqsda_admission_queue_depth",
		"Gate wait-queue depth seen by each admission attempt.", obs.CountBuckets, nil)
	t.refreshDuration = reg.NewHistogram("pqsda_refresh_duration_seconds",
		"Engine rebuild time per /v1/refresh.", obs.LatencyBuckets, nil)
	t.snapshotBuildFull = reg.NewHistogram(obs.MetricSnapshotBuildDuration,
		"Serving-snapshot build time by mode.", obs.LatencyBuckets, obs.Labels{"mode": "full"})
	t.snapshotBuildDelta = reg.NewHistogram(obs.MetricSnapshotBuildDuration,
		"Serving-snapshot build time by mode.", obs.LatencyBuckets, obs.Labels{"mode": "delta"})
	t.snapshotDeltaSize = reg.NewHistogram(obs.MetricSnapshotDeltaEntries,
		"Fresh entries folded in per delta snapshot build.", obs.CountBuckets, nil)
	t.snapLoad = make(map[string]*obs.Histogram, 3)
	for _, src := range []string{"mmap", "heap", "http"} {
		t.snapLoad[src] = reg.NewHistogram("pqsda_snapshot_load_duration_seconds",
			"Wire-image snapshot load time by source (mmap/heap file loads, http adoptions).",
			obs.LatencyBuckets, obs.Labels{"source": src})
	}
	// One gauge per wire-format section over the image behind the
	// serving engine (0 for log-built engines and absent sections). The
	// section-name universe is fixed by the format version, so the
	// series set is stable across loads and adoptions.
	for _, name := range snapwire.SectionNames() {
		name := name
		reg.GaugeFunc("pqsda_snapshot_bytes",
			"Bytes per section of the wire image behind the serving engine (0 when built from a log).",
			obs.Labels{"section": name},
			func() float64 {
				for _, sec := range s.engine.Load().LoadedImage().Sections {
					if sec.Name() == name {
						return float64(sec.Length)
					}
				}
				return 0
			})
	}

	counter := func(a *atomic.Int64) func() float64 {
		return func() float64 { return float64(a.Load()) }
	}
	st := &s.stats
	for _, c := range []struct {
		name, help string
		read       func() float64
	}{
		{"pqsda_suggest_requests_total", "Suggestion requests received (batch items included).", counter(&st.suggestRequests)},
		{"pqsda_suggest_errors_total", "Suggestion requests answered with an error envelope.", counter(&st.suggestErrors)},
		{"pqsda_suggest_unknown_total", "Suggestion requests for queries unknown to the representation.", counter(&st.suggestUnknown)},
		{"pqsda_suggest_timeouts_total", "Suggestion requests that overran the per-request deadline.", counter(&st.suggestTimeouts)},
		{"pqsda_suggest_cache_hits_total", "Suggestion requests served from the snapshot-keyed cache.", counter(&st.suggestCacheHits)},
		{"pqsda_suggest_slow_total", "Suggestions over the slow-query threshold.", counter(&st.slowQueries)},
		{"pqsda_batch_requests_total", "POST /v1/suggest/batch payloads.", counter(&st.batchRequests)},
		{"pqsda_log_requests_total", "POST /v1/log events recorded.", counter(&st.logRequests)},
		{"pqsda_feedback_requests_total", "POST /v1/feedback ratings recorded.", counter(&st.feedbackRequests)},
		{"pqsda_learn_requests_total", "POST /v1/learn fold-ins requested.", counter(&st.learnRequests)},
		{"pqsda_refreshes_total", "Successful /v1/refresh rebuilds.", counter(&st.refreshes)},
		{"pqsda_refresh_errors_total", "Failed /v1/refresh attempts.", counter(&st.refreshErrors)},
		{"pqsda_engine_swaps_total", "Engine hot-swaps (refresh and snapshot adoption).", counter(&st.swaps)},
		{"pqsda_admission_admitted_total", "Requests admitted through a concurrency gate.", counter(&st.admitted)},
		{"pqsda_degraded_total", "Breaker-open requests routed to the cache-only degraded path.", counter(&st.degradedRequests)},
		{"pqsda_degraded_miss_total", "Degraded requests with no cached list (503).", counter(&st.degradedMisses)},
		{"pqsda_brownout_total", "Degraded cache misses answered by the brownout strategy.", counter(&st.brownoutServed)},
		{"pqsda_body_too_large_total", "Requests rejected by the body-size cap (413).", counter(&st.bodyTooLarge)},
	} {
		reg.CounterFunc(c.name, c.help, nil, c.read)
	}
	// Shed counters share one series split by reason, mirroring how an
	// operator asks the question ("who is turning my traffic away?").
	reg.CounterFunc("pqsda_shed_total", "Requests shed by admission control.",
		obs.Labels{"reason": "rate_limited_ip"}, counter(&st.shedRateIP))
	reg.CounterFunc("pqsda_shed_total", "Requests shed by admission control.",
		obs.Labels{"reason": "rate_limited_user"}, counter(&st.shedRateUser))
	reg.CounterFunc("pqsda_shed_total", "Requests shed by admission control.",
		obs.Labels{"reason": "overloaded"}, counter(&st.shedOverloaded))

	// Breaker and gate occupancy gauges read the live controller (0 /
	// closed when admission is disabled).
	reg.GaugeFunc("pqsda_breaker_state", "Circuit breaker state (0 closed, 1 open, 2 half-open).", nil,
		func() float64 {
			if ctrl := s.admission.Load(); ctrl != nil {
				return float64(ctrl.Breaker.StateValue())
			}
			return 0
		})
	reg.CounterFunc("pqsda_breaker_opens_total", "Times the circuit breaker tripped open.", nil,
		func() float64 {
			if ctrl := s.admission.Load(); ctrl != nil {
				return float64(ctrl.Breaker.Opens())
			}
			return 0
		})
	reg.GaugeFunc("pqsda_suggest_inflight", "Requests currently holding a suggest-gate slot.", nil,
		func() float64 {
			if ctrl := s.admission.Load(); ctrl != nil {
				return float64(ctrl.Suggest.InFlight())
			}
			return 0
		})
	reg.GaugeFunc("pqsda_suggest_waiting", "Requests currently queued at the suggest gate.", nil,
		func() float64 {
			if ctrl := s.admission.Load(); ctrl != nil {
				return float64(ctrl.Suggest.Waiting())
			}
			return 0
		})

	reg.GaugeFunc("pqsda_engine_generation", "Generation of the serving engine snapshot.", nil,
		func() float64 { return float64(s.engine.Load().Generation()) })
	cacheStat := func(read func(cs cacheCounters) float64) func() float64 {
		return func() float64 {
			eng := s.engine.Load()
			c := eng.Cache()
			if c == nil {
				return 0
			}
			cs := c.Stats()
			return read(cacheCounters{
				hits: cs.Hits, misses: cs.Misses, coalesced: cs.Coalesced,
				evictions: cs.Evictions, expirations: cs.Expirations, entries: int64(cs.Entries),
			})
		}
	}
	reg.CounterFunc("pqsda_cache_hits_total", "Suggestion-cache hits.", nil, cacheStat(func(c cacheCounters) float64 { return float64(c.hits) }))
	reg.CounterFunc("pqsda_cache_misses_total", "Suggestion-cache misses.", nil, cacheStat(func(c cacheCounters) float64 { return float64(c.misses) }))
	reg.CounterFunc("pqsda_cache_coalesced_total", "Requests coalesced onto a concurrent identical computation.", nil, cacheStat(func(c cacheCounters) float64 { return float64(c.coalesced) }))
	reg.CounterFunc("pqsda_cache_evictions_total", "Suggestion-cache LRU evictions.", nil, cacheStat(func(c cacheCounters) float64 { return float64(c.evictions) }))
	reg.CounterFunc("pqsda_cache_expirations_total", "Suggestion-cache TTL expirations.", nil, cacheStat(func(c cacheCounters) float64 { return float64(c.expirations) }))
	reg.GaugeFunc("pqsda_cache_entries", "Suggestion-cache resident entries.", nil, cacheStat(func(c cacheCounters) float64 { return float64(c.entries) }))

	compactStat := func(read func(cs core.CompactCacheStats) float64) func() float64 {
		return func() float64 { return read(s.engine.Load().CompactCacheStats()) }
	}
	reg.CounterFunc("pqsda_compact_cache_hits_total", "Compact-representation cache hits (requests that skipped the graph carving).", nil, compactStat(func(cs core.CompactCacheStats) float64 { return float64(cs.Hits) }))
	reg.CounterFunc("pqsda_compact_cache_misses_total", "Compact-representation cache misses (full BuildCompact runs).", nil, compactStat(func(cs core.CompactCacheStats) float64 { return float64(cs.Misses) }))
	reg.GaugeFunc("pqsda_compact_cache_entries", "Compact-representation cache resident entries.", nil, compactStat(func(cs core.CompactCacheStats) float64 { return float64(cs.Entries) }))

	reg.GaugeFunc("pqsda_uptime_seconds", "Seconds since the server was created.", nil,
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("pqsda_goroutines", "Live goroutines in the process.", nil,
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("pqsda_heap_alloc_bytes", "Bytes of allocated heap objects.", nil,
		func() float64 { var m runtime.MemStats; runtime.ReadMemStats(&m); return float64(m.HeapAlloc) })
	reg.CounterFunc("pqsda_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", nil,
		func() float64 { var m runtime.MemStats; runtime.ReadMemStats(&m); return float64(m.PauseTotalNs) / 1e9 })
	return t
}

// cacheCounters decouples the gauge closures from the suggestcache
// stats struct shape.
type cacheCounters struct {
	hits, misses, coalesced, evictions, expirations, entries int64
}

// observe feeds one stage duration, pinning the request as the bucket
// exemplar when retention is enabled (ObserveExemplar degrades to a
// plain Observe otherwise).
func (t *telemetry) observeStage(stage string, d time.Duration, reqID, traceID string) {
	if h := t.stages[stage]; h != nil {
		h.ObserveExemplar(d.Seconds(), reqID, traceID)
	}
}

// observeStrategy counts one completed suggestion against its strategy
// and, when the Select stage actually ran (cache hits report zero),
// feeds its duration into the per-strategy latency histogram.
func (t *telemetry) observeStrategy(name string, selectTime time.Duration, reqID, traceID string) {
	if name == "" {
		return
	}
	if c := t.strategyRequests[name]; c != nil {
		c.Add(1)
	}
	if selectTime > 0 {
		if h := t.selectDuration[name]; h != nil {
			h.ObserveExemplar(selectTime.Seconds(), reqID, traceID)
		}
	}
}

// recordSolve feeds the solve-shape metric from one single-path
// pipeline run: the RHS count of every fresh Eq. 15 solve (1 on this
// path). Cache hits and degraded answers carry no fresh solve and are
// skipped.
func (s *Server) recordSolve(res core.Result) {
	if res.CacheHit || res.SolveBatchSize < 1 {
		return
	}
	s.tel.solveBatchSize.Observe(float64(res.SolveBatchSize))
}

// recordBatchSolve feeds the same metric from one DoBatch group run.
// All computing lanes of a group share ONE blocked solve, so the batch
// size is observed once, from the first fresh lane.
func (s *Server) recordBatchSolve(results []core.Result) {
	for _, res := range results {
		if !res.CacheHit && res.SolveBatchSize >= 1 {
			s.tel.solveBatchSize.Observe(float64(res.SolveBatchSize))
			return
		}
	}
}

// observeSnapshotBuild feeds the build-mode histograms from one
// refresh's snapshot stats.
func (t *telemetry) observeSnapshotBuild(b snapshot.Stats) {
	if b.Mode == snapshot.ModeDelta {
		t.snapshotBuildDelta.Observe(b.Duration.Seconds())
		t.snapshotDeltaSize.Observe(float64(b.DeltaEntries))
	} else {
		t.snapshotBuildFull.Observe(b.Duration.Seconds())
	}
}

// reset re-baselines every latency/depth histogram (counts, sums and
// the previously forever-monotonic max) without touching the request
// counters — the counters are rates, the histograms are distributions.
func (t *telemetry) reset() {
	for _, h := range t.stages {
		h.Reset()
	}
	for _, h := range t.selectDuration {
		h.Reset()
	}
	for _, h := range []*obs.Histogram{
		t.cgIterations, t.cgResidual, t.hittingRounds, t.hittingWalkSteps,
		t.solveBatchSize, t.httpDuration, t.queueDepth, t.refreshDuration,
		t.snapshotBuildFull, t.snapshotBuildDelta, t.snapshotDeltaSize,
	} {
		h.Reset()
	}
}

// stageStatsPayload renders one latency histogram for /v1/stats: the
// legacy count/totalMs/meanMs/maxMs keys plus the tail percentiles the
// old aggregates could not express.
func stageStatsPayload(h *obs.Histogram) map[string]any {
	s := h.Snapshot()
	return map[string]any{
		"count":   int64(s.Count),
		"totalMs": s.Sum * 1e3,
		"meanMs":  s.Mean() * 1e3,
		"maxMs":   s.Max * 1e3,
		"p50Ms":   s.Quantile(0.50) * 1e3,
		"p90Ms":   s.Quantile(0.90) * 1e3,
		"p99Ms":   s.Quantile(0.99) * 1e3,
	}
}

// depthStatsPayload renders one unitless depth histogram (iterations,
// rounds, residuals) for /v1/stats.
func depthStatsPayload(h *obs.Histogram) map[string]any {
	s := h.Snapshot()
	return map[string]any{
		"count": int64(s.Count),
		"mean":  s.Mean(),
		"max":   s.Max,
		"p50":   s.Quantile(0.50),
		"p90":   s.Quantile(0.90),
		"p99":   s.Quantile(0.99),
	}
}

// runtimePayload is the /v1/stats "runtime" section: process uptime,
// goroutine count and a memory/GC summary, so a long-running middleware
// can be health-checked without attaching pprof.
func (s *Server) runtimePayload() map[string]any {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	lastPause := float64(0)
	if m.NumGC > 0 {
		lastPause = float64(m.PauseNs[(m.NumGC+255)%256]) / 1e6
	}
	return map[string]any{
		"uptimeSeconds":  time.Since(s.start).Seconds(),
		"goroutines":     runtime.NumGoroutine(),
		"heapAllocBytes": m.HeapAlloc,
		"heapSysBytes":   m.HeapSys,
		"numGC":          m.NumGC,
		"gcPauseTotalMs": float64(m.PauseTotalNs) / 1e6,
		"lastGCPauseMs":  lastPause,
	}
}

// expvarSeq numbers the Servers of this process so each can publish
// its stats under a unique /debug/vars name: expvar's namespace is
// process-global and Publish panics on duplicates. The first server
// keeps the historical name "pqsda"; later ones (more servers in one
// process, test fixtures) get "pqsda_2", "pqsda_3", … instead of being
// silently dropped as before. Published closures keep their Server
// reachable for the life of the process — the price of expvar's global
// registry; the per-instance /metrics endpoint has no such pin.
var expvarSeq atomic.Int64

func (s *Server) publishExpvar() {
	s.expvarOnce.Do(func() {
		n := expvarSeq.Add(1)
		name := "pqsda"
		if n > 1 {
			name = fmt.Sprintf("pqsda_%d", n)
		}
		s.expvarName = name
		expvar.Publish(name, expvar.Func(func() any { return s.statsPayload() }))
	})
}

// ExpvarName reports the name this server's stats are published under
// on /debug/vars ("pqsda" for the first server in the process,
// "pqsda_N" after).
func (s *Server) ExpvarName() string {
	s.publishExpvar()
	return s.expvarName
}
