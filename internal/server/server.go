// Package server implements the web-search middleware of the paper's
// HPR study (Section VI-C): an HTTP service that serves PQS-DA
// suggestions, records the searchers' query log for future profile
// training, and collects explicit 6-point relevance ratings of the
// suggestions it served.
//
// The serving path is non-blocking and bounded: the engine lives behind
// an atomic pointer, a refresh happens on a clone that is hot-swapped
// in when ready (a learn publishes a new snapshot of the serving engine
// at the same generation), and every suggestion request carries a
// context deadline threaded down to the Eq. 15 CG solve and the
// hitting-time greedy loop. When the engine carries a suggestion cache
// (core.Engine.EnableCache), repeated and concurrent identical
// requests are served from memory; each hot-swap bumps the engine
// generation, which invalidates the previous snapshot's cache entries
// by construction.
//
// # API versions
//
// The canonical surface is versioned under /v1 (/v1/suggest,
// /v1/suggest/batch, /v1/feedback, /v1/log, /v1/learn, /v1/refresh,
// /v1/stats). Every error is the uniform envelope
//
//	{"error": {"code": "...", "message": "...", "details": {...}}}
//
// The pre-versioning /api/* paths remain mounted as aliases of the same
// handlers; they answer identically but emit a "Deprecation: true"
// header and a Link to their successor. /v1/suggest/batch has no legacy
// alias (it postdates the /api surface).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/querylog"
	"repro/internal/slo"
)

// Server is the suggestion middleware. Create with New and mount via
// Handler.
type Server struct {
	// engine is the serving engine. Suggestion requests Load it without
	// any lock; refreshes build a replacement off the serving path and
	// Store it — an in-flight request keeps using the engine it loaded,
	// which stays valid. /v1/learn instead publishes a new snapshot
	// inside the serving engine (core.Engine.LearnUser), which requests
	// observe just as atomically.
	engine atomic.Pointer[core.Engine]
	// swapMu serializes the clone→mutate→swap sequences of /v1/refresh
	// and the in-place fold-ins of /v1/learn against each other. The
	// suggestion path never takes it. Serialization also keeps engine
	// generations strictly increasing, which the suggestion cache's
	// keying relies on.
	swapMu sync.Mutex
	// timeoutNs is the per-request suggestion deadline in nanoseconds
	// (0 = none), settable at runtime via SetRequestTimeout.
	timeoutNs atomic.Int64
	// slowQueryNs is the slow-query trace-log threshold (0 = off).
	slowQueryNs atomic.Int64
	// admission is the overload-protection layer (rate limiters,
	// concurrency gates, circuit breaker); nil means everything is
	// admitted. Installed via SetAdmission, read lock-free on the
	// serving path.
	admission atomic.Pointer[admission.Controller]
	// maxBodyBytes caps /v1 and /api POST bodies via http.MaxBytesReader
	// (0 = uncapped). Defaults to DefaultMaxBodyBytes.
	maxBodyBytes atomic.Int64
	// brownout designates the cheap diversification strategy that answers
	// breaker-open cache misses (see strategies.go); unset means those
	// requests shed with 503 as before.
	brownout brownoutState
	// batchSolve selects the /v1/suggest/batch execution model: grouped
	// multi-RHS solving via Engine.DoBatch (default) versus the legacy
	// independent-item path. See batch.go and SetBatchSolve.
	batchSolve atomic.Bool
	// sloState is the SLO subsystem installed by EnableSLO (nil when
	// disabled): burn-rate trackers, the wide-event flight recorder and
	// the evaluation loop (see slo.go).
	sloState atomic.Pointer[sloRuntime]

	stats serverStats
	// tel holds the per-instance metric registry and histograms backing
	// /metrics and the percentile sections of /v1/stats.
	tel *telemetry
	// traces is the ring of recent suggestion traces behind
	// /debug/traces.
	traces *obs.TraceRing
	// logger is the structured request logger (atomic so SetLogger is
	// safe while serving). Defaults to discard.
	logger atomic.Pointer[slog.Logger]
	// start anchors uptime reporting.
	start time.Time
	// pprofEnabled mounts net/http/pprof in Handler when set.
	pprofEnabled bool

	expvarOnce sync.Once
	expvarName string

	mu sync.Mutex
	// lastIngested is how many recorded entries have been handed to the
	// engine already.
	lastIngested int
	// recorded accumulates the query events observed through the
	// middleware (the experts' log in the paper's study).
	recorded querylog.Log
	// feedback accumulates explicit suggestion ratings.
	feedback []Feedback
	// sink, when set, receives every recorded entry and rating as TSV
	// lines for durable storage.
	sink io.Writer
}

// Feedback is one explicit rating of a served suggestion on the
// paper's 6-point scale {0, 0.2, 0.4, 0.6, 0.8, 1}.
type Feedback struct {
	User       string    `json:"user"`
	Query      string    `json:"query"`
	Suggestion string    `json:"suggestion"`
	Rating     float64   `json:"rating"`
	At         time.Time `json:"at"`
}

// New wraps an engine. sink may be nil; when set, recorded events and
// feedback are appended to it as TSV lines (control characters in
// user-supplied fields are backslash-escaped so one event is always one
// line).
func New(engine *core.Engine, sink io.Writer) *Server {
	s := &Server{sink: sink, start: time.Now()}
	s.engine.Store(engine)
	s.maxBodyBytes.Store(DefaultMaxBodyBytes)
	s.batchSolve.Store(true)
	s.tel = newTelemetry(s)
	s.traces = obs.NewTraceRing(defaultTraceRingSize)
	s.logger.Store(discardLogger())
	return s
}

// Engine returns the engine currently serving suggestions. Refresh and
// learn swap in a new engine, so holders of the returned pointer see a
// consistent—possibly slightly stale—snapshot.
func (s *Server) Engine() *core.Engine { return s.engine.Load() }

// SetRequestTimeout bounds every suggestion request: on overrun the
// handler stops the pipeline (mid-CG-solve if need be) and returns 504
// with the stage timings completed so far. Zero disables the deadline.
// Safe to call while serving.
func (s *Server) SetRequestTimeout(d time.Duration) { s.timeoutNs.Store(int64(d)) }

// RequestTimeout returns the configured per-request deadline.
func (s *Server) RequestTimeout() time.Duration { return time.Duration(s.timeoutNs.Load()) }

// Handler returns the HTTP handler with all routes mounted: the
// canonical /v1 surface, the deprecated /api aliases, health, and the
// observability endpoints (/metrics, /debug/traces, /debug/stats/reset,
// expvar, and /debug/pprof when EnablePProf was called). The whole mux
// is wrapped in the request-ID/logging middleware.
func (s *Server) Handler() http.Handler {
	s.publishExpvar()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	// /v1/health is the component-scoreboard readiness probe (see
	// health.go); deliberately outside admission control.
	mux.HandleFunc("GET /v1/health", s.handleHealthV1)
	// Routes shared by /v1 (canonical) and /api (deprecated alias).
	routes := []struct {
		method, path string
		h            http.HandlerFunc
	}{
		{"GET", "/suggest", s.handleSuggestGet},
		{"POST", "/suggest", s.handleSuggestPost},
		{"POST", "/feedback", s.handleFeedback},
		{"POST", "/log", s.handleLog},
		{"POST", "/learn", s.handleLearn},
		{"POST", "/refresh", s.handleRefresh},
		{"GET", "/stats", s.handleStats},
	}
	for _, rt := range routes {
		mux.HandleFunc(rt.method+" /v1"+rt.path, rt.h)
		mux.HandleFunc(rt.method+" /api"+rt.path, deprecatedAlias("/v1"+rt.path, rt.h))
	}
	// Batch and strategy discovery are v1-only: they postdate the /api
	// surface.
	mux.HandleFunc("POST /v1/suggest/batch", s.handleSuggestBatch)
	mux.HandleFunc("GET /v1/strategies", s.handleStrategies)
	// Snapshot distribution (v1-only): download the serving wire image,
	// or replace the serving snapshot with a posted image.
	mux.HandleFunc("GET /v1/snapshot", s.handleSnapshotGet)
	mux.HandleFunc("POST /v1/snapshot", s.handleSnapshotPost)
	mux.Handle("GET /debug/vars", expvar.Handler())
	s.mountDebug(mux)
	return s.withObs(mux)
}

// legacySunset is the announced removal date of the /api aliases,
// served verbatim as the Sunset header (RFC 8594) on every legacy
// response so clients can alert on it mechanically.
const legacySunset = "Mon, 01 Feb 2027 00:00:00 GMT"

// deprecatedAlias wraps a handler for the legacy /api mount: identical
// behavior, plus the standard deprecation headers pointing clients at
// the /v1 successor and the Sunset date after which the alias may be
// removed.
func deprecatedAlias(successor string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Sunset", legacySunset)
		w.Header().Set("Link", fmt.Sprintf("<%s>; rel=\"successor-version\"", successor))
		h(w, r)
	}
}

// --- Error envelope --------------------------------------------------

// apiError is the uniform error payload: a stable machine-readable
// code, a human-readable message, and optional structured details
// (e.g. the partial stage timings of a timed-out request).
type apiError struct {
	Code    string         `json:"code"`
	Message string         `json:"message"`
	Details map[string]any `json:"details,omitempty"`
	// retryAfter, when positive, becomes the Retry-After response header
	// (shed and degraded responses tell clients when to come back).
	retryAfter time.Duration
}

// errorEnvelope is the wire shape of every non-2xx response:
// {"error": {"code", "message", "details"}}.
type errorEnvelope struct {
	Error *apiError `json:"error"`
}

// Stable error codes of the /v1 surface (documented in README).
const (
	codeBadJSON          = "bad_json"          // 400: body is not valid JSON
	codeMissingQuery     = "missing_query"     // 400: no input query
	codeMissingUser      = "missing_user"      // 400: endpoint needs a user
	codeMissingField     = "missing_field"     // 400: other required field absent
	codeBadK             = "bad_k"             // 400: k not a positive integer
	codeBadTimestamp     = "bad_timestamp"     // 400: at/context time not RFC3339
	codeBadMode          = "bad_mode"          // 400: unknown refresh mode
	codeBadRating        = "bad_rating"        // 400: rating off the 6-point scale
	codeBadBatch         = "bad_batch"         // 400: batch payload empty/malformed
	codeBadDebug         = "bad_debug"         // 400: unknown debug mode (only "trace")
	codeUnknownStrategy  = "unknown_strategy"  // 400: strategy not in the registry
	codeBatchTooLarge    = "batch_too_large"   // 413: batch exceeds MaxBatchSize
	codeNotFound         = "not_found"         // 404: no recorded history
	codeConflict         = "conflict"          // 409: engine cannot satisfy the mutation
	codeDeadlineExceeded = "deadline_exceeded" // 504: per-request deadline overrun
	codeInternal         = "internal"          // 500: unexpected pipeline failure

	// Admission-control codes (see internal/admission and admission.go).
	codePayloadTooLarge = "payload_too_large"    // 413: body exceeds the -max-body-bytes cap
	codeRateLimited     = "rate_limited"         // 429: per-user/per-IP token bucket empty
	codeOverloaded      = "overloaded"           // 429: concurrency gate shed the request
	codeDegraded        = "degraded_unavailable" // 503: breaker open, no cached list to serve
)

func newAPIError(code, message string) *apiError {
	return &apiError{Code: code, Message: message}
}

// writeAPIError writes the envelope, stamping the request ID into
// details so clients and the request log cross-reference on one key.
func writeAPIError(w http.ResponseWriter, r *http.Request, status int, e *apiError) {
	if id := obs.RequestIDFrom(r.Context()); id != "" {
		if e.Details == nil {
			e.Details = map[string]any{}
		}
		e.Details["requestId"] = id
	}
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", retryAfterValue(e.retryAfter))
	}
	writeJSON(w, status, errorEnvelope{Error: e})
}

// statusOf maps an error code to its HTTP status.
func statusOf(code string) int {
	switch code {
	case codeNotFound:
		return http.StatusNotFound
	case codeConflict:
		return http.StatusConflict
	case codeDeadlineExceeded:
		return http.StatusGatewayTimeout
	case codeInternal:
		return http.StatusInternalServerError
	case codeBatchTooLarge, codePayloadTooLarge:
		return http.StatusRequestEntityTooLarge
	case codeRateLimited, codeOverloaded:
		return http.StatusTooManyRequests
	case codeDegraded:
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// decodeBody decodes an optional JSON request body into v. An empty
// body is valid and leaves v at its zero value, so handlers whose
// request fields all have documented defaults (e.g. /v1/refresh's
// mode) accept a bare POST.
//
// Two rejections harden the intake: a body over the configured cap
// (http.MaxBytesReader, installed by the middleware) is a 413, and a
// body with trailing garbage after the JSON value ({"k":5}garbage) is
// a 400 — json.Decoder reads a stream, so without the second Decode
// check it would silently accept anything appended to a valid value.
func (s *Server) decodeBody(r *http.Request, v any) *apiError {
	dec := json.NewDecoder(r.Body)
	err := dec.Decode(v)
	if errors.Is(err, io.EOF) {
		return nil // empty body: documented defaults apply
	}
	if err == nil {
		if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
			return newAPIError(codeBadJSON, "bad JSON: trailing data after body")
		}
		return nil
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		s.stats.bodyTooLarge.Add(1)
		return newAPIError(codePayloadTooLarge,
			fmt.Sprintf("request body exceeds the %d-byte limit", tooLarge.Limit))
	}
	return newAPIError(codeBadJSON, "bad JSON: "+err.Error())
}

// --- Refresh / learn -------------------------------------------------

// RefreshRequest is the POST /v1/refresh body: ingest all recorded
// traffic into the engine and rebuild per mode ("graphs", "foldin" or
// "retrain"). An empty body (or empty mode) means "graphs". Build
// selects the representation build strategy — "full" (recount the
// whole log) or "delta" (incremental build over the fresh entries,
// bit-identical to full); empty uses the engine's configured default.
type RefreshRequest struct {
	Mode  string `json:"mode"`
	Build string `json:"build"`
}

func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	// Rebuilds are expensive and serialized anyway (swapMu); the gate
	// turns a refresh pile-up into fast 429s instead of a lock convoy.
	if ctrl := s.admission.Load(); ctrl != nil {
		if aerr := s.acquireGate(r.Context(), ctrl.Refresh); aerr != nil {
			writeAPIError(w, r, statusOf(aerr.Code), aerr)
			return
		}
		defer ctrl.Refresh.Release()
	}
	var req RefreshRequest
	if aerr := s.decodeBody(r, &req); aerr != nil {
		writeAPIError(w, r, statusOf(aerr.Code), aerr)
		return
	}
	var mode core.RefreshMode
	switch req.Mode {
	case "", "graphs":
		mode = core.RebuildGraphs
	case "foldin":
		mode = core.FoldInUsers
	case "retrain":
		mode = core.RetrainProfiles
	default:
		writeAPIError(w, r, http.StatusBadRequest, newAPIError(codeBadMode, "mode must be graphs, foldin or retrain"))
		return
	}

	// One rebuild at a time; suggestions never wait here — they read
	// the old engine until the swap below.
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	cur := s.engine.Load()

	strategy := cur.Strategy()
	switch req.Build {
	case "":
	case "full":
		strategy = core.FullRebuild
	case "delta":
		strategy = core.DeltaRebuild
	default:
		writeAPIError(w, r, http.StatusBadRequest, newAPIError(codeBadMode, "build must be full or delta"))
		return
	}

	// Validate BEFORE ingesting: a mode the engine cannot satisfy must
	// not consume the recorded entries or touch any engine state.
	if err := cur.CanRefresh(mode); err != nil {
		s.stats.refreshErrors.Add(1)
		writeAPIError(w, r, http.StatusConflict, newAPIError(codeConflict, err.Error()))
		return
	}

	// Snapshot the fresh entries under the record lock. Entries that
	// arrive while the rebuild runs stay pending for the next refresh.
	s.mu.Lock()
	prevIngested := s.lastIngested
	fresh := append([]querylog.Entry(nil), s.recorded.Entries[s.lastIngested:]...)
	s.lastIngested = s.recorded.Len()
	s.mu.Unlock()

	start := time.Now()
	next, err := cur.RebuildWith(fresh, mode, strategy)
	if err != nil {
		// Roll the ingest cursor back: the entries were never applied.
		s.mu.Lock()
		s.lastIngested = prevIngested
		s.mu.Unlock()
		s.stats.refreshErrors.Add(1)
		writeAPIError(w, r, http.StatusConflict, newAPIError(codeConflict, err.Error()))
		return
	}
	s.engine.Store(next)
	d := time.Since(start)
	build := next.LastBuild()
	s.stats.observeRefresh(d)
	s.tel.refreshDuration.Observe(d.Seconds())
	s.tel.observeSnapshotBuild(build)
	s.stats.swaps.Add(1)
	s.Logger().LogAttrs(r.Context(), slog.LevelInfo, "engine refreshed",
		slog.String("requestId", obs.RequestIDFrom(r.Context())),
		slog.String("mode", req.Mode),
		slog.String("build", build.Mode.String()),
		slog.Int("ingested", len(fresh)),
		slog.Int("deltaEntries", build.DeltaEntries),
		slog.Uint64("generation", next.Generation()),
		slog.Float64("durationMs", ms(d)))
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       "refreshed",
		"ingested":     len(fresh),
		"generation":   next.Generation(),
		"build":        build.Mode.String(),
		"deltaEntries": build.DeltaEntries,
		"durationMs":   float64(d.Microseconds()) / 1000,
	})
}

// LearnRequest is the POST /v1/learn body: fold the middleware's
// recorded history for the user into the engine's profiles (online
// profiling of new users without retraining).
type LearnRequest struct {
	User string `json:"user"`
}

func (s *Server) handleLearn(w http.ResponseWriter, r *http.Request) {
	ctrl := s.admission.Load()
	if ctrl != nil {
		if aerr := s.acquireGate(r.Context(), ctrl.Learn); aerr != nil {
			writeAPIError(w, r, statusOf(aerr.Code), aerr)
			return
		}
		defer ctrl.Learn.Release()
	}
	var req LearnRequest
	if aerr := s.decodeBody(r, &req); aerr != nil {
		writeAPIError(w, r, statusOf(aerr.Code), aerr)
		return
	}
	if req.User == "" {
		writeAPIError(w, r, http.StatusBadRequest, newAPIError(codeMissingUser, "missing user"))
		return
	}
	if ctrl != nil {
		if ok, retry := ctrl.Users.Allow(req.User); !ok {
			s.stats.shedRateUser.Add(1)
			writeAPIError(w, r, http.StatusTooManyRequests, rateLimitedError(retry))
			return
		}
	}
	s.stats.learnRequests.Add(1)
	s.mu.Lock()
	entries := s.recorded.ByUser(req.User)
	s.mu.Unlock()
	if len(entries) == 0 {
		writeAPIError(w, r, http.StatusNotFound, newAPIError(codeNotFound, "no recorded history for user"))
		return
	}
	// LearnUser publishes the folded-in profiles as a new snapshot of
	// the serving engine at the SAME generation, so the suggestion and
	// compact caches stay valid (they hold user-independent state) and
	// in-flight suggestions keep the snapshot they loaded. swapMu keeps
	// the fold-in from racing a refresh that is replacing the engine.
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	cur := s.engine.Load()
	if err := cur.LearnUser(req.User, entries); err != nil {
		writeAPIError(w, r, http.StatusConflict, newAPIError(codeConflict, err.Error()))
		return
	}
	s.Logger().LogAttrs(r.Context(), slog.LevelInfo, "user folded in",
		slog.String("requestId", obs.RequestIDFrom(r.Context())),
		slog.String("user", req.User),
		slog.Int("entries", len(entries)),
		slog.Uint64("generation", cur.Generation()))
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "learned", "entries": len(entries), "generation": cur.Generation(),
	})
}

// --- Suggest ---------------------------------------------------------

// SuggestRequest is the suggestion request on the wire, decoded
// uniformly from the GET query string and the POST JSON body (one
// decoder — the two transports cannot drift).
type SuggestRequest struct {
	User  string `json:"user"`
	Query string `json:"query"`
	K     int    `json:"k"`
	// Context lists the current session's previous queries, most
	// recent last, with RFC3339 timestamps.
	Context []ContextItem `json:"context,omitempty"`
	// At is the submission time (RFC3339; empty means now).
	At string `json:"at,omitempty"`
	// NoCache bypasses the suggestion cache for this request.
	NoCache bool `json:"noCache,omitempty"`
	// Strategy selects the diversification strategy ("hitting", "mmr",
	// "pfar", "relevance", …; GET /v1/strategies lists them). Empty means
	// the engine default. Unknown names are a 400 unknown_strategy.
	Strategy string `json:"strategy,omitempty"`
	// Debug, when set to "trace", returns the request's span tree
	// (pipeline stages with CG iterations, residual, hitting rounds …)
	// inline in the response.
	Debug string `json:"debug,omitempty"`
}

// ContextItem is one search-context query.
type ContextItem struct {
	Query string `json:"query"`
	At    string `json:"at"`
}

// SuggestResponse is the suggestion payload.
type SuggestResponse struct {
	Suggestions []string `json:"suggestions"`
	Diversified []string `json:"diversified"`
	CompactSize int      `json:"compactSize"`
	ElapsedMS   float64  `json:"elapsedMs"`
	// Generation identifies the engine snapshot that answered; it bumps
	// on every refresh hot-swap (a learn keeps it).
	Generation uint64 `json:"generation"`
	// Cached reports the diversified list came from the suggestion
	// cache (personalization still ran fresh for this user).
	Cached bool `json:"cached"`
	// Strategy echoes the canonical name of the diversification strategy
	// that produced (or would have produced, on a cache hit) the list.
	Strategy string `json:"strategy,omitempty"`
	// Degraded reports the circuit breaker was open and this response
	// was served from the generation-keyed cache without running the
	// personalize/hitting pipeline.
	Degraded bool `json:"degraded,omitempty"`
	// RequestID echoes the request's ID (also on the X-Request-Id
	// response header) for cross-referencing logs and traces.
	RequestID string `json:"requestId,omitempty"`
	// Trace is the request's span tree, present only for debug=trace.
	Trace *obs.TraceSnapshot `json:"trace,omitempty"`
}

// decodeSuggestRequest is the single decoder both transports go
// through. GET reads user/q/k/at/nocache from the query string; POST
// reads the JSON body. K validation is shared: absent means the default
// (10), an explicitly supplied k must be a positive integer, and values
// above 100 are clamped by validateSuggestRequest.
func (s *Server) decodeSuggestRequest(r *http.Request) (SuggestRequest, *apiError) {
	var req SuggestRequest
	if r.Method == http.MethodGet {
		q := r.URL.Query()
		req.User = q.Get("user")
		req.Query = q.Get("q")
		req.At = q.Get("at")
		req.NoCache = q.Get("nocache") == "1" || q.Get("nocache") == "true"
		req.Debug = q.Get("debug")
		req.Strategy = q.Get("strategy")
		if ks := q.Get("k"); ks != "" {
			// strconv.Atoi rejects trailing garbage ("5x") that Sscanf
			// silently accepted; non-positive k is an error, not a
			// panic source further down.
			v, err := strconv.Atoi(ks)
			if err != nil || v < 1 {
				return req, newAPIError(codeBadK, "k must be a positive integer")
			}
			req.K = v
		}
		return req, nil
	}
	if aerr := s.decodeBody(r, &req); aerr != nil {
		return req, aerr
	}
	if req.K < 0 {
		return req, newAPIError(codeBadK, "k must be a positive integer")
	}
	return req, nil
}

// maxK caps the suggestion count: the diversification pool scales with
// k, so an unbounded k is a self-inflicted denial of service.
const maxK = 100

// validateSuggestRequest turns the wire request into a core request:
// required fields, k defaulting/clamping, timestamp parsing. This is
// the ONE place suggestion validation happens — GET, POST and batch all
// flow through it.
func validateSuggestRequest(req SuggestRequest) (core.SuggestRequest, *apiError) {
	var out core.SuggestRequest
	if req.Query == "" {
		return out, newAPIError(codeMissingQuery, "missing query")
	}
	if req.Debug != "" && req.Debug != "trace" {
		return out, newAPIError(codeBadDebug, `debug must be "trace"`)
	}
	k := req.K
	if k == 0 {
		k = 10
	}
	if k > maxK {
		k = maxK
	}
	at := time.Now()
	if req.At != "" {
		t, err := time.Parse(time.RFC3339, req.At)
		if err != nil {
			return out, newAPIError(codeBadTimestamp, "bad at timestamp")
		}
		at = t
	}
	var sctx []querylog.Entry
	for _, c := range req.Context {
		t, err := time.Parse(time.RFC3339, c.At)
		if err != nil {
			return out, newAPIError(codeBadTimestamp, "bad context timestamp")
		}
		sctx = append(sctx, querylog.Entry{UserID: req.User, Query: c.Query, Time: t})
	}
	return core.SuggestRequest{
		User:     req.User,
		Query:    req.Query,
		Context:  sctx,
		At:       at,
		K:        k,
		NoCache:  req.NoCache,
		Strategy: req.Strategy,
	}, nil
}

func (s *Server) handleSuggestGet(w http.ResponseWriter, r *http.Request) {
	// Gate BEFORE decoding: during a flood the shed path must not pay
	// for parsing work it is about to throw away.
	gate, ok := s.admitSuggest(r.Context(), w)
	if !ok {
		return
	}
	defer gate.Release()
	req, aerr := s.decodeSuggestRequest(r)
	if aerr != nil {
		s.stats.suggestRequests.Add(1)
		s.stats.suggestErrors.Add(1)
		writeAPIError(w, r, statusOf(aerr.Code), aerr)
		return
	}
	s.serveSuggestion(w, r, req)
}

func (s *Server) handleSuggestPost(w http.ResponseWriter, r *http.Request) {
	gate, ok := s.admitSuggest(r.Context(), w)
	if !ok {
		return
	}
	defer gate.Release()
	req, aerr := s.decodeSuggestRequest(r)
	if aerr != nil {
		s.stats.suggestRequests.Add(1)
		s.stats.suggestErrors.Add(1)
		writeAPIError(w, r, statusOf(aerr.Code), aerr)
		return
	}
	s.serveSuggestion(w, r, req)
}

func (s *Server) serveSuggestion(w http.ResponseWriter, r *http.Request, req SuggestRequest) {
	resp, aerr := s.suggestOnce(r.Context(), req)
	if aerr != nil {
		writeAPIError(w, r, statusOf(aerr.Code), aerr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// pipelineFn is the engine stage of one suggestion: it produces the
// result (possibly degraded) for an admitted, validated request. The
// single-request path uses Server.suggestPipeline; the batch endpoint
// substitutes a group runner that answers items of one solve group from
// a shared multi-RHS DoBatch call (see batch.go).
type pipelineFn func(ctx context.Context, eng *core.Engine, creq core.SuggestRequest) (core.Result, bool, error, *apiError)

// suggestOnce runs one validated suggestion end to end through the
// standard pipeline. Shared by the single endpoint and ungrouped batch
// items.
func (s *Server) suggestOnce(rctx context.Context, req SuggestRequest) (*SuggestResponse, *apiError) {
	return s.suggestRun(rctx, req, nil)
}

// suggestRun runs one suggestion end to end: stats, trace, deadline,
// engine snapshot, the pipeline stage (runner; nil means
// s.suggestPipeline), recording. Everything around the engine call —
// validation accounting, per-user rate limiting, wide events, SLO
// recording, error envelopes — is identical for every caller, so batch
// items get exactly single-request semantics with only the engine stage
// swapped out.
func (s *Server) suggestRun(rctx context.Context, req SuggestRequest, runner pipelineFn) (*SuggestResponse, *apiError) {
	s.stats.suggestRequests.Add(1)
	reqID := obs.RequestIDFrom(rctx)
	creq, aerr := validateSuggestRequest(req)
	if aerr != nil {
		s.stats.suggestErrors.Add(1)
		s.flightEvent(reqID, "", core.SuggestRequest{}, core.Result{}, 0,
			slo.OutcomeBadRequest, statusOf(aerr.Code), false, false)
		return nil, aerr
	}
	// Per-user token bucket. Anonymous requests are exempt here — the
	// middleware's per-IP bucket already covers them, and an empty key
	// would pool every anonymous client into one bucket.
	if ctrl := s.admission.Load(); ctrl != nil && creq.User != "" {
		if ok, retry := ctrl.Users.Allow(creq.User); !ok {
			s.stats.shedRateUser.Add(1)
			s.flightEvent(reqID, "", creq, core.Result{}, 0,
				slo.OutcomeShedRate, http.StatusTooManyRequests, false, false)
			return nil, rateLimitedError(retry)
		}
	}

	// Request-scoped trace: every pipeline stage down to the CG solver
	// appends spans; the completed trace lands in the /debug/traces
	// ring, is logged when over the slow-query budget, and is returned
	// inline for debug=trace. Batch items trace individually. The trace
	// gets its own server-assigned ID (distinct from the possibly
	// client-supplied request ID) — the key exemplars and wide events
	// carry, resolvable via /debug/exemplars?trace=.
	tr := obs.NewTrace(reqID)
	tr.TraceID = newRequestID()
	ctx := obs.WithTrace(rctx, tr)

	// Request-scoped deadline: client disconnects cancel via the
	// request context, and the configured timeout bounds the pipeline.
	if d := s.RequestTimeout(); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	start := time.Now()
	root := tr.StartSpan("suggest")
	root.SetAttr("query", creq.Query)
	root.SetAttr("user", creq.User)
	root.SetAttr("k", creq.K)
	// Lock-free engine access: a refresh swapping the pointer mid-call
	// does not affect this request, which finishes on its snapshot.
	eng := s.engine.Load()
	if runner == nil {
		runner = s.suggestPipeline
	}
	res, degraded, err, aerr := runner(ctx, eng, creq)
	elapsed := time.Since(start)
	root.SetAttr("generation", res.Generation)
	root.SetAttr("cacheHit", res.CacheHit)
	if degraded {
		root.SetAttr("degraded", true)
	}
	root.End()

	// Classify the disposition once for the flight recorder and the
	// latency/fidelity SLOs — every path out of this function leaves one
	// wide event behind.
	outcome, status := classifySuggest(ctx, degraded, err, aerr)
	brownoutServed := degraded && aerr == nil && err == nil && !res.CacheHit
	s.flightEvent(reqID, tr.TraceID, creq, res, elapsed, outcome, status, degraded, brownoutServed)
	s.recordSuggestSLO(res, elapsed, degraded)

	if aerr != nil {
		// Breaker open and nothing cached: shed with 503.
		s.finishTrace(tr, elapsed, res.Strategy, res.Generation)
		s.stats.suggestErrors.Add(1)
		return nil, aerr
	}
	s.observeStages(res, elapsed, reqID, tr.TraceID)
	snap := s.finishTrace(tr, elapsed, res.Strategy, res.Generation)
	if res.CacheHit {
		s.stats.suggestCacheHits.Add(1)
	}
	if err != nil {
		if errors.Is(err, core.ErrUnknownStrategy) {
			s.stats.suggestErrors.Add(1)
			e := newAPIError(codeUnknownStrategy, err.Error())
			e.Details = map[string]any{
				"strategy": req.Strategy,
				"known":    eng.StrategyNames(),
			}
			return nil, e
		}
		if ctx.Err() != nil {
			// Deadline overrun (or client gone): report how far the
			// pipeline got instead of running the solver to completion.
			s.stats.suggestTimeouts.Add(1)
			return nil, &apiError{
				Code:    codeDeadlineExceeded,
				Message: "deadline exceeded",
				Details: map[string]any{
					"compactSize":     res.CompactSize,
					"solveIterations": res.SolveIterations,
					"compactMs":       ms(res.CompactTime),
					"solveMs":         ms(res.SolveTime),
					"hittingMs":       ms(res.HittingTime),
					"elapsedMs":       ms(elapsed),
				},
			}
		}
		if errors.Is(err, core.ErrUnknownQuery) {
			s.stats.suggestUnknown.Add(1)
			resp := &SuggestResponse{
				Suggestions: []string{}, Diversified: []string{},
				Generation: res.Generation, Strategy: res.Strategy, RequestID: reqID,
			}
			if req.Debug == "trace" {
				resp.Trace = &snap
			}
			return resp, nil
		}
		s.stats.suggestErrors.Add(1)
		return nil, newAPIError(codeInternal, err.Error())
	}
	// The middleware records what the searcher asked — future profile
	// training data, as in the paper's four-month study.
	s.record(querylog.Entry{UserID: creq.User, Query: creq.Query, Time: creq.At})

	resp := &SuggestResponse{
		Suggestions: res.Suggestions,
		Diversified: res.Diversified,
		CompactSize: res.CompactSize,
		ElapsedMS:   ms(elapsed),
		Generation:  res.Generation,
		Cached:      res.CacheHit,
		Strategy:    res.Strategy,
		Degraded:    degraded,
		RequestID:   reqID,
	}
	if req.Debug == "trace" {
		resp.Trace = &snap
	}
	return resp, nil
}

// --- Observability ---------------------------------------------------

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n, f := s.recorded.Len(), len(s.feedback)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "recordedEntries": n, "feedback": f,
		"swaps":      s.stats.swaps.Load(),
		"generation": s.engine.Load().Generation(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsPayload())
}

// statsPayload combines the request counters with the per-stage latency
// percentiles, the pipeline-depth histograms (CG iterations/residual,
// hitting rounds), process runtime stats, the serving engine's
// generation and, when caching is enabled, the cache's
// hit/miss/coalesce/eviction counters. Backs /v1/stats and expvar.
func (s *Server) statsPayload() map[string]any {
	m := s.stats.snapshot()
	stages := make(map[string]any, len(s.tel.stageNames))
	for _, name := range s.tel.stageNames {
		stages[name] = stageStatsPayload(s.tel.stages[name])
	}
	m["stages"] = stages
	m["solver"] = map[string]any{
		"cgIterations":     depthStatsPayload(s.tel.cgIterations),
		"cgResidual":       depthStatsPayload(s.tel.cgResidual),
		"hittingRounds":    depthStatsPayload(s.tel.hittingRounds),
		"hittingWalkSteps": depthStatsPayload(s.tel.hittingWalkSteps),
		"batchSize":        depthStatsPayload(s.tel.solveBatchSize),
	}
	m["http"] = stageStatsPayload(s.tel.httpDuration)
	m["runtime"] = s.runtimePayload()
	m["slo"] = s.sloStatsPayload()
	// Extend the counter-only admission section from snapshot() with the
	// live controller state: breaker, gate occupancy, limiter key counts
	// and the queue-depth distribution.
	adm := m["admission"].(map[string]any)
	adm["queueDepth"] = depthStatsPayload(s.tel.queueDepth)
	ctrl := s.admission.Load()
	adm["enabled"] = ctrl != nil
	if ctrl != nil {
		adm["advisory"] = ctrl.Advisory().String()
		adm["breaker"] = map[string]any{
			"state": ctrl.Breaker.State().String(),
			"opens": ctrl.Breaker.Opens(),
		}
		adm["suggestGate"] = map[string]any{
			"limit":      ctrl.Suggest.Limit(),
			"inFlight":   ctrl.Suggest.InFlight(),
			"waiting":    ctrl.Suggest.Waiting(),
			"saturation": ctrl.Suggest.Saturation(),
		}
		adm["rateKeys"] = map[string]any{
			"users": ctrl.Users.Keys(),
			"ips":   ctrl.IPs.Keys(),
		}
	}
	eng := s.engine.Load()
	byStrategy := make(map[string]any, len(s.tel.strategyNames))
	for _, name := range s.tel.strategyNames {
		byStrategy[name] = map[string]any{
			"requests": s.tel.strategyRequests[name].Load(),
			"select":   stageStatsPayload(s.tel.selectDuration[name]),
		}
	}
	m["strategies"] = map[string]any{
		"default":    eng.DiversifyDefault(),
		"brownout":   s.BrownoutStrategy(),
		"byStrategy": byStrategy,
	}
	m["snapshot"] = s.snapshotStatsPayload()
	build := eng.LastBuild()
	m["engine"] = map[string]any{
		"generation":     eng.Generation(),
		"pendingEntries": eng.PendingEntries(),
		"dirtyClamps":    eng.DirtyClamps(),
		"lastBuild": map[string]any{
			"mode":          build.Mode.String(),
			"deltaEntries":  build.DeltaEntries,
			"affectedUsers": build.AffectedUsers,
			"durationMs":    float64(build.Duration.Microseconds()) / 1000,
			"entries":       build.LogEntries,
			"sessions":      build.NumSessions,
			"queries":       build.NumQueries,
		},
	}
	if c := eng.Cache(); c != nil {
		st := c.Stats()
		m["cache"] = map[string]any{
			"hits":        st.Hits,
			"misses":      st.Misses,
			"coalesced":   st.Coalesced,
			"evictions":   st.Evictions,
			"expirations": st.Expirations,
			"entries":     st.Entries,
			"hitRate":     st.HitRate(),
		}
	}
	return m
}

// observeStages feeds the core.Result timing breakdown into the
// per-stage latency histograms (partial results from cancelled requests
// count too — their completed stages are real work; cache hits report
// zero for the stages they skipped and are not observed there). The
// request/trace IDs ride along as bucket exemplars when exemplar
// retention is enabled, so a high bucket on /metrics names a real
// request.
func (s *Server) observeStages(res core.Result, total time.Duration, reqID, traceID string) {
	s.tel.observeStage("total", total, reqID, traceID)
	if res.CompactTime > 0 {
		s.tel.observeStage("compact", res.CompactTime, reqID, traceID)
	}
	if res.SolveTime > 0 {
		s.tel.observeStage("solve", res.SolveTime, reqID, traceID)
	}
	if res.HittingTime > 0 {
		s.tel.observeStage("hitting", res.HittingTime, reqID, traceID)
	}
	if res.PersonalizeTime > 0 {
		s.tel.observeStage("personalize", res.PersonalizeTime, reqID, traceID)
	}
	// HittingTime is the Select-stage wall time whatever the strategy
	// (the field name predates the pluggable boundary); cache hits report
	// zero and are counted without a latency observation.
	s.tel.observeStrategy(res.Strategy, res.HittingTime, reqID, traceID)
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// --- Feedback / log --------------------------------------------------

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	var fb Feedback
	if aerr := s.decodeBody(r, &fb); aerr != nil {
		writeAPIError(w, r, statusOf(aerr.Code), aerr)
		return
	}
	if fb.User == "" || fb.Suggestion == "" {
		writeAPIError(w, r, http.StatusBadRequest, newAPIError(codeMissingField, "missing user or suggestion"))
		return
	}
	if !validRating(fb.Rating) {
		writeAPIError(w, r, http.StatusBadRequest, newAPIError(codeBadRating, "rating must be one of 0, 0.2, 0.4, 0.6, 0.8, 1"))
		return
	}
	s.stats.feedbackRequests.Add(1)
	fb.At = time.Now()
	s.mu.Lock()
	s.feedback = append(s.feedback, fb)
	if s.sink != nil {
		fmt.Fprintf(s.sink, "feedback\t%s\t%s\t%s\t%.1f\n",
			escapeTSV(fb.User), escapeTSV(fb.Query), escapeTSV(fb.Suggestion), fb.Rating)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]string{"status": "recorded"})
}

// LogRequest is the POST /v1/log body: one raw search event.
type LogRequest struct {
	User       string `json:"user"`
	Query      string `json:"query"`
	ClickedURL string `json:"clickedUrl,omitempty"`
	At         string `json:"at,omitempty"`
}

func (s *Server) handleLog(w http.ResponseWriter, r *http.Request) {
	var req LogRequest
	if aerr := s.decodeBody(r, &req); aerr != nil {
		writeAPIError(w, r, statusOf(aerr.Code), aerr)
		return
	}
	if req.User == "" || req.Query == "" {
		writeAPIError(w, r, http.StatusBadRequest, newAPIError(codeMissingField, "missing user or query"))
		return
	}
	at := time.Now()
	if req.At != "" {
		t, err := time.Parse(time.RFC3339, req.At)
		if err != nil {
			writeAPIError(w, r, http.StatusBadRequest, newAPIError(codeBadTimestamp, "bad at timestamp"))
			return
		}
		at = t
	}
	s.stats.logRequests.Add(1)
	s.record(querylog.Entry{UserID: req.User, Query: req.Query, ClickedURL: req.ClickedURL, Time: at})
	writeJSON(w, http.StatusOK, map[string]string{"status": "recorded"})
}

func (s *Server) record(e querylog.Entry) {
	s.mu.Lock()
	s.recorded.Append(e)
	if s.sink != nil {
		fmt.Fprintf(s.sink, "entry\t%s\t%s\t%s\t%s\n",
			escapeTSV(e.UserID), escapeTSV(e.Query), escapeTSV(e.ClickedURL),
			e.Time.UTC().Format(time.RFC3339))
	}
	s.mu.Unlock()
}

// escapeTSV backslash-escapes the characters that would corrupt the
// one-event-per-line TSV sink: user-controlled queries and suggestions
// may legally contain tabs and newlines.
func escapeTSV(s string) string {
	if !strings.ContainsAny(s, "\t\n\r\\") {
		return s
	}
	return tsvEscaper.Replace(s)
}

var tsvEscaper = strings.NewReplacer("\\", `\\`, "\t", `\t`, "\n", `\n`, "\r", `\r`)

// Recorded returns a copy of the query log observed so far.
func (s *Server) Recorded() *querylog.Log {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := &querylog.Log{Entries: append([]querylog.Entry(nil), s.recorded.Entries...)}
	return out
}

// FeedbackLog returns a copy of the collected ratings.
func (s *Server) FeedbackLog() []Feedback {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Feedback(nil), s.feedback...)
}

// MeanHPR returns the average rating collected so far (NaN-free: 0
// when empty) — the number the paper's Fig. 6 averages over experts.
func (s *Server) MeanHPR() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.feedback) == 0 {
		return 0
	}
	sum := 0.0
	for _, f := range s.feedback {
		sum += f.Rating
	}
	return sum / float64(len(s.feedback))
}

func validRating(r float64) bool {
	for _, v := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1} {
		if r > v-1e-9 && r < v+1e-9 {
			return true
		}
	}
	return false
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
