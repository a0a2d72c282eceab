// Command pqsda serves personalized, diversity-aware query suggestions
// from a query log. It reads a TSV log (see cmd/loggen) or generates a
// synthetic one, builds the PQS-DA engine, and answers queries from
// flags, interactively from stdin, or over HTTP.
//
// Usage:
//
//	pqsda -log log.tsv -user u0003 -query "sun" -k 10
//	pqsda -synthetic -user u0003              # interactive: one query per line
//	pqsda -log log.tsv -serve :8080           # HTTP middleware (see internal/server)
//	pqsda -log log.tsv -save engine.bin       # train once, persist
//	pqsda -engine engine.bin -query "sun"     # serve from a persisted engine
//	pqsda -snapshot-load engine.bin -serve :8080   # mmap the image, zero-copy
//	pqsda -log log.tsv -snapshot-save engine.bin -serve :8080  # train, persist, serve
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/snapwire"
)

func main() {
	var (
		logPath   = flag.String("log", "", "query log file (TSV from loggen, or AOL format with -format aol)")
		format    = flag.String("format", "tsv", "log file format: tsv or aol")
		synthetic = flag.Bool("synthetic", false, "generate a synthetic log instead of -log")
		seed      = flag.Int64("seed", 1, "seed for -synthetic and model training")
		user      = flag.String("user", "", "user ID to personalize for (empty: diversification only)")
		query     = flag.String("query", "", "input query (empty: read queries from stdin)")
		k         = flag.Int("k", 10, "number of suggestions")
		budget    = flag.Int("budget", 200, "compact representation size (the paper's Q)")
		topics    = flag.Int("topics", 10, "UPM topic count")
		verbose   = flag.Bool("v", false, "print stage diagnostics")
		workers   = flag.Int("workers", 1, "parallel workers for every compute stage: UPM training, the Eq. 15 CG solve, and hitting-time sweeps (results are identical at any count)")
		serve     = flag.String("serve", "", "serve the HTTP suggestion API on this address instead of the CLI")
		reqTimout = flag.Duration("request-timeout", 5*time.Second, "per-request suggestion deadline for -serve (0 disables; overruns return 504)")
		slowQuery = flag.Duration("slow-query", 250*time.Millisecond, "log the full trace of any suggestion slower than this (0 disables)")
		pprofFlag = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof on the serving mux")
		cacheSize = flag.Int("cache-size", 4096, "suggestion cache capacity in entries (0 disables caching)")
		compCache = flag.Int("compact-cache", 128, "compact-representation cache capacity in entries — a hit skips the per-request graph carving and its derived matrices, results are bit-identical (0 disables)")
		cacheTTL  = flag.Duration("cache-ttl", 0, "suggestion cache entry lifetime (0: entries live until evicted or the engine is swapped)")
		savePath  = flag.String("save", "", "persist the trained engine to this file and exit")
		enginePth = flag.String("engine", "", "load a persisted engine instead of training from a log")
		snapSave  = flag.String("snapshot-save", "", "write the engine's wire-format snapshot image to this file and keep going (unlike -save; combine with -serve to train, persist and serve in one run)")
		snapLoad  = flag.String("snapshot-load", "", "load a snapshot image from this file via mmap where the platform supports it (zero heap copy; falls back to a heap read) instead of training from a log")
		refrMode  = flag.String("refresh-mode", "full", "representation build strategy for /v1/refresh: full (recount the whole log) or delta (incremental, bit-identical to full)")
		strategy  = flag.String("strategy", "", "default diversification strategy: hitting (the paper's Algorithm 1), mmr, pfar or relevance (empty: hitting); per-request override via the strategy field of /v1/suggest")
		brownout  = flag.String("brownout-strategy", "relevance", "cheap strategy serving breaker-open cache misses under -serve instead of 503 (empty disables the brownout fallback)")
		batchSlv  = flag.Bool("batch-solve", true, "group /v1/suggest/batch items by solve signature and answer each group with one blocked multi-RHS CG solve (false: legacy independent items)")

		// Admission control / overload hardening (-serve only).
		admissionOn = flag.Bool("admission", true, "enable admission control: per-stage concurrency gates with bounded queues (429 on shed) and the degraded-path circuit breaker")
		suggestLim  = flag.Int("suggest-limit", 0, "max concurrently running suggestion pipelines (0: 4x GOMAXPROCS)")
		suggestQ    = flag.Int("suggest-queue", -1, "bounded wait-queue depth at the suggest gate (-1: 2x limit)")
		suggestWait = flag.Duration("suggest-max-wait", 100*time.Millisecond, "max time a suggestion may queue for a gate slot before shedding with 429")
		rateUser    = flag.Float64("rate-user", 0, "per-user token-bucket rate limit in requests/second (0 disables)")
		rateIP      = flag.Float64("rate-ip", 0, "per-client-IP token-bucket rate limit in requests/second (0 disables)")
		maxBody     = flag.Int64("max-body-bytes", server.DefaultMaxBodyBytes, "max /v1 POST body size in bytes; overflow returns 413 (0 disables the cap)")
		drainWait   = flag.Duration("drain-timeout", 10*time.Second, "max time to drain in-flight requests on SIGINT/SIGTERM before exiting")

		// Structured logging and SLOs (-serve only).
		logFormat = flag.String("log-format", "text", "structured log format: text or json")
		sloOn     = flag.Bool("slo", true, "enable the SLO subsystem: burn-rate evaluation over the declared objectives, the /v1/health component scoreboard, and the wide-event flight recorder")
		sloP99    = flag.Duration("slo-latency-p99", 250*time.Millisecond, "end-to-end suggestion latency budget of the latency SLO (99% of requests must finish within it)")
		sloAvail  = flag.Float64("slo-availability", 0.999, "availability SLO goal over guarded API requests (good = no 5xx)")
		frSize    = flag.Int("flightrecorder-size", 4096, "wide-event flight-recorder ring capacity in requests")
		frDumpDir = flag.String("flightrecorder-dump-dir", "", "directory receiving an automatic flight-recorder JSONL dump when an SLO enters fast burn (empty disables auto-dump)")
	)
	flag.Parse()

	var engine *pqsda.Engine
	var snapSource string // "mmap" | "heap" when -snapshot-load was used
	var snapElapsed time.Duration
	if *snapLoad != "" {
		start := time.Now()
		var err error
		engine, err = core.LoadEngineFile(*snapLoad)
		if err != nil {
			fatal(err)
		}
		snapElapsed = time.Since(start)
		snapSource = "heap"
		if engine.LoadedImage().Mapped {
			snapSource = "mmap"
		}
		fmt.Fprintf(os.Stderr, "snapshot %s loaded in %v (%s, %d bytes)\n",
			*snapLoad, snapElapsed.Round(time.Microsecond), snapSource, engine.LoadedImage().Size)
	} else if *enginePth != "" {
		f, err := os.Open(*enginePth)
		if err != nil {
			fatal(err)
		}
		engine, err = core.LoadEngine(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "loaded engine from %s\n", *enginePth)
	} else {
		var log *pqsda.Log
		switch {
		case *logPath != "":
			f, err := os.Open(*logPath)
			if err != nil {
				fatal(err)
			}
			switch *format {
			case "tsv":
				log, err = pqsda.ReadLog(f)
			case "aol":
				log, err = pqsda.ReadAOLLog(f)
			default:
				err = fmt.Errorf("unknown -format %q", *format)
			}
			f.Close()
			if err != nil {
				fatal(err)
			}
		case *synthetic:
			log = pqsda.SyntheticLog(pqsda.SyntheticConfig{Seed: *seed, NumUsers: 50, SessionsPerUser: 25}).Log
		default:
			fatal(fmt.Errorf("need -log FILE, -synthetic, or -engine FILE"))
		}
		fmt.Fprintf(os.Stderr, "building engine over %d log entries…\n", log.Len())
		var err error
		engine, err = pqsda.NewEngine(log, pqsda.Config{
			CompactBudget:       *budget,
			Topics:              *topics,
			TrainingIterations:  60,
			Seed:                *seed,
			Workers:             *workers,
			DiversificationOnly: *user == "" && *serve == "" && *savePath == "" && *snapSave == "",
			RefreshMode:         *refrMode,
			Strategy:            *strategy,
			CompactCache:        compactCacheSize(*compCache),
		})
		if err != nil {
			fatal(err)
		}
	}

	if *snapSave != "" {
		img, err := engine.WireImage()
		if err != nil {
			fatal(err)
		}
		if err := snapwire.WriteFileAtomic(*snapSave, func(w io.Writer) error {
			_, err := w.Write(img)
			return err
		}); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "snapshot written to %s (%d bytes)\n", *snapSave, len(img))
	}

	if *savePath != "" {
		if err := snapwire.WriteFileAtomic(*savePath, engine.Save); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "engine saved to %s\n", *savePath)
		return
	}

	if *cacheSize > 0 {
		engine.EnableCache(*cacheSize, *cacheTTL)
	}

	if *serve != "" {
		srv := server.New(engine, os.Stderr)
		if snapSource != "" {
			srv.ObserveSnapshotLoad(snapSource, snapElapsed)
		}
		srv.SetRequestTimeout(*reqTimout)
		srv.SetBatchSolve(*batchSlv)
		srv.SetSlowQueryThreshold(*slowQuery)
		opts := &slog.HandlerOptions{Level: slog.LevelInfo}
		switch *logFormat {
		case "text":
			srv.SetLogger(slog.New(slog.NewTextHandler(os.Stderr, opts)))
		case "json":
			srv.SetLogger(slog.New(slog.NewJSONHandler(os.Stderr, opts)))
		default:
			fatal(fmt.Errorf("unknown -log-format %q (want text or json)", *logFormat))
		}
		if *pprofFlag {
			srv.EnablePProf()
		}
		srv.SetMaxBodyBytes(*maxBody)
		if err := srv.SetBrownoutStrategy(*brownout); err != nil {
			fatal(err)
		}
		if *admissionOn {
			acfg := admission.DefaultConfig()
			if *suggestLim > 0 {
				acfg.Suggest.Limit = *suggestLim
			}
			acfg.Suggest.Queue = *suggestQ
			acfg.Suggest.MaxWait = *suggestWait
			acfg.User = admission.RateConfig{Rate: *rateUser}
			acfg.IP = admission.RateConfig{Rate: *rateIP}
			srv.SetAdmission(acfg)
		}
		if *sloOn {
			scfg := pqsda.DefaultSLOConfig()
			scfg.LatencyP99 = *sloP99
			scfg.Availability = *sloAvail
			scfg.FlightRecorderSize = *frSize
			scfg.DumpDir = *frDumpDir
			srv.EnableSLO(scfg)
			defer srv.Close()
		}
		fmt.Fprintf(os.Stderr, "serving suggestion API on %s (GET /v1/suggest?user=&q=&k=&debug=trace; health on /v1/health; stats on /v1/stats, /metrics, /debug/traces, /debug/exemplars, /debug/flightrecorder, /debug/vars; request timeout %v; slow-query %v; cache %d entries; admission %v; slo %v (p99 %v, availability %g); max body %d bytes; pprof %v)\n",
			*serve, *reqTimout, *slowQuery, *cacheSize, *admissionOn, *sloOn, *sloP99, *sloAvail, *maxBody, *pprofFlag)
		if err := serveHTTP(*serve, srv.Handler(), *drainWait); err != nil {
			fatal(err)
		}
		return
	}

	answer := func(q string) {
		res, err := engine.Do(context.Background(), core.SuggestRequest{
			User: *user, Query: q, K: *k,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "%q: %v\n", q, err)
			return
		}
		for i, s := range res.Suggestions {
			fmt.Printf("%2d. %s\n", i+1, s)
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "compact=%d queries, solve=%d iters, cached=%v, stages: compact %v, solve %v, hitting %v, personalize %v\n",
				res.CompactSize, res.SolveIterations, res.CacheHit,
				res.CompactTime.Round(time.Microsecond), res.SolveTime.Round(time.Microsecond),
				res.HittingTime.Round(time.Microsecond), res.PersonalizeTime.Round(time.Microsecond))
		}
	}

	if *query != "" {
		answer(*query)
		return
	}
	fmt.Fprintln(os.Stderr, "enter queries, one per line (Ctrl-D to quit):")
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		q := strings.TrimSpace(sc.Text())
		if q == "" {
			continue
		}
		answer(q)
	}
}

// serveHTTP runs a hardened http.Server: slow-client timeouts on every
// phase of the exchange (the bare http.ListenAndServe it replaces had
// none, so one slowloris peer per connection slot was a full outage)
// and graceful drain on SIGINT/SIGTERM — in-flight requests get up to
// drain to finish, new connections are refused immediately.
func serveHTTP(addr string, h http.Handler, drain time.Duration) error {
	hs := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop() // a second signal during the drain kills immediately
		fmt.Fprintf(os.Stderr, "pqsda: signal received, draining for up to %v…\n", drain)
		sctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			return fmt.Errorf("drain incomplete after %v: %w", drain, err)
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		fmt.Fprintln(os.Stderr, "pqsda: drained, bye")
		return nil
	}
}

// compactCacheSize maps the flag's "0 disables" convention onto the
// engine config's "0 = default, negative disables".
func compactCacheSize(n int) int {
	if n <= 0 {
		return -1
	}
	return n
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pqsda:", err)
	os.Exit(1)
}
