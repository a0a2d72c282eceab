package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/querylog"
	"repro/internal/snapshot"
	"repro/internal/suggestcache"
)

// SuggestRequest is the request object of the suggestion API: one
// struct instead of the old positional 5-argument family, so new knobs
// (cache bypass, per-request personalization skip) extend the surface
// without another signature.
type SuggestRequest struct {
	// User is the user to personalize for; empty serves the
	// diversified ranking (anonymous traffic).
	User string
	// Query is the input query.
	Query string
	// Context lists the current session's previous queries, most
	// recent last (the paper's search context, Definition 2).
	Context []querylog.Entry
	// At is the submission time, anchoring the Eq. 7 decay of Context.
	// Zero means now.
	At time.Time
	// K is the number of suggestions (must be positive).
	K int
	// Strategy selects the diversification strategy by registry name
	// ("hitting", "mmr", "pfar", "relevance", or any engine-local
	// addition — see internal/diversify). Empty resolves to the
	// engine's configured default; unknown names return
	// ErrUnknownStrategy. The resolved canonical name is part of the
	// suggestion-cache key, so strategies never serve each other's
	// lists.
	Strategy string
	// SkipPersonalization returns the diversified ranking even when the
	// engine has profiles for User.
	SkipPersonalization bool
	// NoCache bypasses the suggestion cache for this request (the
	// computation still runs; its result is not stored or shared).
	NoCache bool
	// CachedOnly answers exclusively from the suggestion cache: a hit
	// serves the stored diversified list (personalization still runs
	// fresh), a miss returns ErrNotCached WITHOUT running the pipeline.
	// This is the circuit-breaker degraded path — when the expensive
	// personalize/hitting stage is tripped, the server keeps answering
	// head queries from cache instead of queueing doomed work.
	// CachedOnly takes precedence over NoCache.
	CachedOnly bool
}

// ErrNotCached is returned by Do for CachedOnly requests whose key has
// no fresh cache entry (or when the engine has no cache at all).
var ErrNotCached = errors.New("core: no cached diversified list for this request")

// Do runs the suggestion pipeline for one request. It is the engine's
// entry point; the request's ctx cancels every stage.
//
// When the engine has a cache (EnableCache), the expensive
// user-INDEPENDENT part — compact build, Eq. 15 CG solve, hitting-time
// selection — is served from it under a key of (engine generation,
// normalized query, time-bucketed context fingerprint, k). Concurrent
// identical misses coalesce to a single computation. Personalization is
// a cheap per-user re-rank and always runs on top of the cached
// diversified list, so one cache entry serves every user asking the
// same thing.
//
// Callers must treat the slices in the returned Result as read-only:
// on a cache hit Diversified is shared with other requests.
func (e *Engine) Do(ctx context.Context, req SuggestRequest) (Result, error) {
	if req.K <= 0 {
		return Result{}, fmt.Errorf("core: k = %d", req.K)
	}
	at := req.At
	if at.IsZero() {
		at = time.Now()
	}

	// One snapshot load per request: every stage below — cache keying,
	// the diversification pipeline, personalization — reads this value,
	// so a concurrent hot-swap can never mix states mid-request.
	snap := e.snap.Load()

	// Resolve the strategy BEFORE any cache access: the canonical name
	// (never "") is what enters the key, so an empty Strategy and the
	// default's explicit name address the same entries.
	strategy, div, serr := e.resolveStrategy(req.Strategy)
	if serr != nil {
		return Result{Generation: snap.Generation}, serr
	}

	var res Result
	var err error
	if req.CachedOnly {
		// Degraded path: cache lookup or nothing. No compute, no
		// coalescing — the point is a hard bound on per-request cost.
		if e.cache == nil {
			return Result{Generation: snap.Generation, Strategy: strategy}, ErrNotCached
		}
		key := e.cacheKey(snap, strategy, req, at)
		var ok bool
		res, ok = e.cache.Get(key)
		if !ok {
			return Result{Generation: snap.Generation, Strategy: strategy}, ErrNotCached
		}
		// Same contract as a regular hit: the stored stage timings
		// belong to the leader that computed the entry, not to this
		// request.
		res.CompactTime, res.SolveTime, res.HittingTime = 0, 0, 0
		res.CacheHit = true
	} else if e.cache != nil && !req.NoCache {
		key := e.cacheKey(snap, strategy, req, at)
		var out suggestcache.Outcome
		res, out, err = e.cache.Do(ctx, key, func(ctx context.Context) (Result, error) {
			return e.suggestDiversifiedOn(ctx, snap, div, strategy, req.Query, req.Context, at, req.K)
		})
		if out == suggestcache.Hit || out == suggestcache.Coalesced {
			// The stage timings belong to the request that actually ran
			// the pipeline; this request did none of that work.
			res.CompactTime, res.SolveTime, res.HittingTime = 0, 0, 0
			res.CacheHit = true
		}
	} else {
		res, err = e.suggestDiversifiedOn(ctx, snap, div, strategy, req.Query, req.Context, at, req.K)
	}
	res.Generation = snap.Generation
	res.Strategy = strategy
	if err != nil {
		return res, err
	}
	if !req.SkipPersonalization && snap.Profiles != nil {
		t0 := time.Now()
		sp := obs.StartSpan(ctx, "personalize")
		res.Suggestions = personalizeResultOn(snap, e.cfg.ScoreMode, req.User, &res)
		res.PersonalizeTime = time.Since(t0)
		sp.SetAttr("user", req.User)
		sp.SetAttr("known", snap.Profiles.Theta(req.User) != nil)
		sp.SetAttr("candidates", len(res.Diversified))
		sp.End()
	} else {
		res.Suggestions = res.Diversified
		res.PersonalizeTime = 0
	}
	return res, nil
}

// cacheKey canonicalizes a request into its suggestion-cache key. Known
// queries address the cache by their snapshot symbol id (an integer,
// fixed-width to hash) instead of the normalized query string; unknown
// queries keep the string form. Generation is part of the key, so ids
// from different snapshots can never collide.
func (e *Engine) cacheKey(snap *snapshot.Snapshot, strategy string, req SuggestRequest, at time.Time) suggestcache.Key {
	key := suggestcache.Key{
		Generation: snap.Generation,
		ContextFP:  ContextFingerprint(req.Context, at, e.cfg.Regularize.Lambda),
		K:          req.K,
		Strategy:   strategy,
	}
	norm := querylog.NormalizeQuery(req.Query)
	if snap.Symbols != nil {
		if id, ok := snap.Symbols.Lookup(norm); ok {
			key.QueryID = id + 1
			return key
		}
	}
	key.Query = norm
	return key
}

// contextBucketsPerHalfLife is the fingerprint resolution: Eq. 7 decay
// exponents are quantized to quarter half-lives, so context entries
// whose weights differ by less than ~16% share a bucket.
const contextBucketsPerHalfLife = 4

// contextMaxBucket drops context entries whose decay weight has fallen
// below ~1e-4 — they no longer influence the F⁰ vector measurably, so
// keying on them would only fragment the cache.
const contextMaxBucket = 53 // ≈ ln(1e4)/ln(2) · 4

// ContextFingerprint canonicalizes a search context for cache keying:
// each context query is normalized and paired with its Eq. 7 decay
// exponent λ·Δt quantized into quarter-half-life buckets. Two requests
// whose contexts would decay indistinguishably therefore share a cache
// entry; entries decayed to irrelevance are dropped. The empty context
// fingerprints to "".
func ContextFingerprint(sctx []querylog.Entry, at time.Time, lambda float64) string {
	if len(sctx) == 0 {
		return ""
	}
	if lambda <= 0 {
		lambda = math.Ln2 / 60 // regularize.Config's documented default
	}
	var b strings.Builder
	for _, en := range sctx {
		dt := at.Sub(en.Time)
		if dt < 0 {
			dt = 0
		}
		bucket := int(lambda * dt.Seconds() / math.Ln2 * contextBucketsPerHalfLife)
		if bucket > contextMaxBucket {
			continue
		}
		// \x1f/\x1e are field/record separators no normalized query can
		// contain, so fingerprints cannot collide across entry splits.
		fmt.Fprintf(&b, "%s\x1f%d\x1e", querylog.NormalizeQuery(en.Query), bucket)
	}
	return b.String()
}

// EnableCache attaches a suggestion cache of at most size entries with
// the given TTL (0 = no expiry) and returns it. The cache stores
// diversified (pre-personalization) lists keyed by engine generation,
// so clones and rebuilt engines SHARE it: a hot-swap invalidates old
// entries by making their generation unaddressable rather than by
// flushing. Call before serving; replacing a cache while requests are
// in flight is not synchronized.
func (e *Engine) EnableCache(size int, ttl time.Duration) *suggestcache.Cache[Result] {
	e.cache = suggestcache.New[Result](suggestcache.Config{MaxEntries: size, TTL: ttl})
	return e.cache
}

// Cache returns the attached suggestion cache, nil when disabled.
func (e *Engine) Cache() *suggestcache.Cache[Result] { return e.cache }

// Generation identifies the serving snapshot. It is stamped at build
// time and bumped by every Clone (and therefore by Rebuild and the
// server's learn path), so each hot-swapped engine carries a fresh
// value and cache keys of replaced snapshots can never be served again.
func (e *Engine) Generation() uint64 { return e.snap.Load().Generation }

// SolveCount reports how many Eq. 15 CG solves this engine instance has
// run — the cache tests' ground truth that coalesced requests share one
// solve. Clones start at zero.
func (e *Engine) SolveCount() int64 { return e.cgSolves.Load() }
