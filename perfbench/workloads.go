package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/querylog"
)

// Workload names.
const (
	HeadReplay    = "head-replay"
	TailContext   = "tail-context"
	IngestRefresh = "ingest-refresh"
)

var workloads = []string{HeadReplay, TailContext, IngestRefresh}

// Options configures one benchmark run.
type Options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Scale    string
	// Server is the pqsda binary; Work a directory for the run's files.
	Server, Work string
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Outcome is the result line of a run plus its human-readable report.
type Outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	Report    []string          `json:"-"`
}

// rates are the steady offered read rates (requests/s): high enough for
// ≥1000 latency samples in a 10 s run, low enough that neither the
// server nor the connections run near saturation (queueing behind a
// busy connection would amplify every run-to-run drift into the p99).
var rates = map[string]float64{HeadReplay: 1000, TailContext: 100, IngestRefresh: 100}

// maintenanceCycles is how many log→refresh→learn→warm-batch cycles a
// run performs (during the steady phase for ingest-refresh, after the
// serving phases for the read workloads).
const maintenanceCycles = 20

// The warm batch asks warmHeads head queries warmLanes times each: one
// solve group of warmLanes right-hand sides per head query. Two groups
// keep the batch's admission-gate slots and its CPU share small while
// reads continue.
const (
	warmHeads = 2
	warmLanes = 6
)

// setupStarts is how many server starts setup_s is the median of.
const setupStarts = 3

// rungTime is the length of the capacity saturation probe and of every
// ladder rung.
const rungTime = 2 * time.Second

// replicaStarts is how many image-loaded replicas are started and timed.
const replicaStarts = 15

// probeCount is the size of the fixed probe set.
const probeCount = 40

// run carries the state of one benchmark run.
type run struct {
	o       Options
	ctx     context.Context
	w       *World
	rng     *rand.Rand
	dir     string
	gate    *Gate
	workers int
	out     *Outcome
	m       map[string]float64
	// phases lists every phase in order for the report and the totals.
	phases []*Phase
	// mu guards what concurrent write operations record: the announced
	// generations, the cycle latencies, phase counters and the report.
	mu sync.Mutex
	// announced are the generations the server reported.
	announced map[uint64]bool
	// cycles are the maintenance cycles run, in completion order.
	cycles []*cycle
	// refreshMS, learnMS and batchMS are the maintenance-cycle
	// latencies (ms).
	refreshMS, learnMS, batchMS []float64
	// steadyReqs is the timed read stream; steps, when set, interleaves
	// it with write operations in schedule order (ingest-refresh).
	steadyReqs []Req
	steps      []step
	// warmReqs is the warm-up stream before the steady phase.
	warmReqs []Req
	trace    *tracer
}

// Run executes one benchmark run.
func Run(ctx context.Context, o Options) (*Outcome, error) {
	sc, ok := scales[o.Scale]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q", o.Scale)
	}
	if _, ok := rates[o.Workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.Workload, strings.Join(workloads, ", "))
	}
	w, err := NewWorld(o.Seed, sc, o.Workload == IngestRefresh)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.Work, fmt.Sprintf("run-%s-%d-", o.Workload, o.Seed))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &run{
		o: o, ctx: ctx, w: w, dir: dir,
		rng:       rand.New(rand.NewSource(o.Seed)),
		gate:      NewGate(w.Vocab),
		workers:   runtime.NumCPU(),
		out:       &Outcome{Metrics: map[string]Metric{}},
		m:         map[string]float64{},
		announced: map[uint64]bool{},
	}
	r.logf("workload %s seed %d scale %s: %d log entries (%d in the build log, %d held back), %d distinct queries, %d users",
		o.Workload, o.Seed, o.Scale, w.Full.Len(), w.Build.Len(), len(w.Held), len(w.Vocab), len(w.Users))
	if err := r.exec(); err != nil {
		return nil, err
	}
	return r.out, nil
}

func (r *run) logf(format string, args ...any) {
	r.out.Report = append(r.out.Report, fmt.Sprintf(format, args...))
}

func (r *run) announce(gen uint64) {
	r.mu.Lock()
	r.announced[gen] = true
	r.mu.Unlock()
}

// serverArgs are the flags the server is started with: the build log
// and, for ingest-refresh, delta refresh; every serving flag default.
func (r *run) serverArgs(logPath string) []string {
	args := []string{"-log", logPath}
	if r.o.Workload == IngestRefresh {
		args = append(args, "-refresh-mode", "delta")
	}
	return args
}

func (r *run) exec() error {
	logPath := filepath.Join(r.dir, "log.tsv")
	if err := r.w.WriteBuildLog(logPath); err != nil {
		return err
	}
	if r.o.Trace {
		t, err := newTracer(r, logPath)
		if err != nil {
			return err
		}
		r.trace = t
	}

	// Set-up: start the server several times, keep the last one.
	setups := setupStarts
	if r.o.Trace {
		setups = 1 // set-up time is an end-to-end metric, not traced
	}
	var srv *Proc
	var ready []float64
	for i := 0; i < setups; i++ {
		p, err := StartProc(r.ctx, r.o.Server, r.serverArgs(logPath), filepath.Join(r.dir, "server.err"))
		if err != nil {
			return err
		}
		ready = append(ready, p.Ready.Seconds())
		if i < setups-1 {
			p.Stop()
			continue
		}
		srv = p
	}
	defer srv.Stop()
	r.m["setup_s"] = median(ready)
	r.logf("setup: server ready after %v s (median of %d starts)", fmtFloats(ready), len(ready))

	cli := NewClient(srv.Addr, r.workers)
	defer cli.Close()
	if r.trace != nil {
		r.trace.parity(cli)
	}

	stopRSS := make(chan struct{})
	rssDone := make(chan []float64)
	go func() { rssDone <- sampleRSS(srv, stopRSS) }()
	before, steady, err := r.serve(cli)
	close(stopRSS)
	rss := <-rssDone
	if err != nil {
		return err
	}
	if len(rss) == 0 {
		return fmt.Errorf("no RSS sample of the server")
	}
	r.m["server_rss_mb"] = median(rss)
	after, err := cli.Scrape(r.ctx)
	if err != nil {
		return err
	}
	r.m["suggest_p50_ms"] = steady.p(0.5)
	r.m["suggest_p99_ms"] = steady.p(0.99)
	r.traffic(before, after, steady)

	if err := r.probes(cli); err != nil {
		return err
	}
	if r.o.Workload != IngestRefresh {
		if err := r.maintenance(cli, r.freshEntries()); err != nil {
			return err
		}
	}
	r.m["refresh_p50_ms"] = median(r.refreshMS)
	r.m["learn_p50_ms"] = median(r.learnMS)
	r.m["warm_batch_p50_ms"] = median(r.batchMS)
	r.logf("maintenance: %d refreshes p50 %.3f ms, %d learns p50 %.3f ms, %d warm batches p50 %.3f ms",
		len(r.refreshMS), r.m["refresh_p50_ms"], len(r.learnMS), r.m["learn_p50_ms"], len(r.batchMS), r.m["warm_batch_p50_ms"])

	if r.trace != nil {
		// The replica and the capacity ladder report unbounded figures,
		// recorded with the per-layer metrics of the traced run.
		r.trace.server(before, after, steady)
		if err := srv.WaitIdle(r.ctx); err != nil {
			return err
		}
		if err := r.replica(cli); err != nil {
			return err
		}
		r.capacity(cli)
	}
	final, err := cli.Scrape(r.ctx)
	if err != nil {
		return err
	}
	r.announce(uint64(final["stats.engine.generation"]))
	r.gate.AuditGenerations(r.announced)
	r.lanes(before, final)
	srv.Stop()

	if r.trace != nil {
		if err := r.trace.inProcess(); err != nil {
			return err
		}
	}
	r.finish()
	return nil
}

// lanes reports the mean right-hand sides per multi-lane solve between
// two scrapes, from the server's solve-batch-size histogram: solves of
// one lane (single requests) sit in its first bucket.
func (r *run) lanes(before, after Counters) {
	const h = "metrics.pqsda_solve_batch_size"
	single := before.Delta(after, h+`_bucket{le="1"}`)
	solves := before.Delta(after, h+"_count")
	multi := solves - single
	r.logf("traffic (run): %.0f blocked multi-RHS solves of %.0f solves, %.2f lanes each on average",
		multi, solves, ratio(before.Delta(after, h+"_sum")-single, multi))
}

// sampleRSS reads the server's resident set size every 100 ms until
// stop is closed. The median of the samples smooths out the heap's
// garbage-collection sawtooth.
func sampleRSS(p *Proc, stop <-chan struct{}) []float64 {
	var out []float64
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		if v, err := p.RSSMiB(); err == nil {
			out = append(out, v)
		}
		select {
		case <-stop:
			return out
		case <-tick.C:
		}
	}
}

// capacity runs the capacity ladder. It runs last: its request volume,
// recorded by the server as log traffic, would otherwise flow into the
// refreshes.
func (r *run) capacity(cli *Client) {
	if r.o.Workload != TailContext {
		warm := r.w.HeadWarm(r.rng, "rewarm")
		r.phases = append(r.phases, OpenLoop(r.ctx, "re-warm", len(warm), 1e9, r.workers, r.sender(cli, warm, nil), nil))
	}
	capRPS, ladder := Capacity(r.ctx, func() *Phase {
		reqs := r.readStream("sat", 20000)
		return ClosedLoop(r.ctx, "capacity/saturation", rungTime, r.workers, r.sender(cli, reqs, nil))
	}, func(rate float64) *Phase {
		n := int(rate * rungTime.Seconds())
		reqs := r.readStream(fmt.Sprintf("cap%.0f", rate), n)
		return OpenLoop(r.ctx, fmt.Sprintf("capacity/%.0f", rate), n, rate, r.workers, r.sender(cli, reqs, nil), nil)
	})
	r.phases = append(r.phases, ladder...)
	r.m["capacity_rps"] = capRPS
}

// readStream draws n read requests of the run's workload.
func (r *run) readStream(prefix string, n int) []Req {
	if r.o.Workload == TailContext {
		return r.w.TailStream(r.rng, prefix, n, r.w.End.Add(time.Hour))
	}
	return r.w.HeadStream(r.rng, prefix, n)
}

// sender returns a sendFn posting reqs[i] through the gate. traced,
// when non-nil, selects the requests sent with debug=trace; their
// client and server spans go to the tracer.
func (r *run) sender(cli *Client, reqs []Req, traced func(i int) bool) sendFn {
	bodies := make([][]byte, len(reqs))
	for i, q := range reqs {
		debug := ""
		if traced != nil && traced(i) {
			debug = "trace"
		}
		bodies[i] = q.body(debug)
	}
	return func(ctx context.Context, i int) (bool, time.Time) {
		i %= len(reqs)
		start := time.Now()
		status, body, err := cli.Do(ctx, http.MethodPost, "/v1/suggest", bodies[i], reqs[i].ID)
		end := time.Now()
		if err != nil || status != http.StatusOK {
			return false, end
		}
		resp, gerr := r.gate.Check(reqs[i], body)
		if gerr != nil {
			return false, end
		}
		if traced != nil && r.trace != nil {
			if traced(i) {
				r.trace.loopback(reqs[i].ID, start, end, resp.Trace)
			} else {
				r.trace.recordService(float64(end.Sub(start)) / 1e6)
			}
		}
		return true, end
	}
}

// serve runs the warm-up and the timed steady phase. It returns the
// server's counters as the steady phase began, and the phase.
func (r *run) serve(cli *Client) (Counters, *Phase, error) {
	rate := rates[r.o.Workload]
	n := int(rate * r.o.Seconds)
	// Warm-up: the head workload fills the suggestion cache with a
	// stream of its own distribution before timing; the others only warm
	// connections and code paths (their users pay the cold path on
	// every request).
	var warm []Req
	warmRate := rate
	if r.o.Workload == HeadReplay {
		warm = r.w.HeadWarm(r.rng, "warm")
		warmRate = 1e9 // as fast as the connections allow
	} else {
		warm = r.readStream("warm", int(rate))
	}
	r.warmReqs = warm
	r.phases = append(r.phases, OpenLoop(r.ctx, "warm-up", len(warm), warmRate, r.workers, r.sender(cli, warm, nil), nil))
	before, err := cli.Scrape(r.ctx)
	if err != nil {
		return nil, nil, err
	}
	r.announce(uint64(before["stats.engine.generation"]))

	reqs := r.readStream("s", n)
	r.steadyReqs = reqs
	r.steps = nil
	var traced func(i int) bool
	if r.trace != nil {
		traced = func(i int) bool { return i%2 == 1 }
	}
	if r.o.Workload != IngestRefresh {
		p := OpenLoop(r.ctx, "steady", n, rate, r.workers, r.sender(cli, reqs, traced), traced)
		r.phases = append(r.phases, p)
		return before, p, nil
	}
	// ingest-refresh: the held-back log's write operations, evenly
	// spread over the first 90% of the phase, share the schedule and the
	// workers with the reads.
	ops, err := r.writePlan(r.w.Held)
	if err != nil {
		return nil, nil, err
	}
	spread := 0.9 * r.o.Seconds
	due := evenly(n, rate)
	r.steps = make([]step, 0, n+len(ops))
	for i := range due {
		r.steps = append(r.steps, step{read: i})
	}
	for k := range ops {
		due = append(due, time.Duration(spread*float64(k)/float64(len(ops))*float64(time.Second)))
		r.steps = append(r.steps, step{read: -1, write: &ops[k]})
	}
	sort.Stable(byDue{due, r.steps})
	var readIdx []int
	for i, st := range r.steps {
		if st.read >= 0 {
			readIdx = append(readIdx, i)
		}
	}
	read := r.sender(cli, reqs, traced)
	ph := &Phase{Name: "maintenance"}
	outs, elapsed := schedule(r.ctx, due, r.workers, func(ctx context.Context, i int) (bool, time.Time) {
		if st := r.steps[i]; st.read >= 0 {
			return read(ctx, st.read)
		}
		r.write(cli, ph, *r.steps[i].write)
		return true, time.Time{}
	})
	ph.Elapsed = elapsed
	p := phaseOf("steady", rate, elapsed, outs, readIdx, traced)
	r.phases = append(r.phases, p, ph)
	return before, p, nil
}

// step is one operation of the steady phase: read request read of the
// steady stream, or (read < 0) a write operation.
type step struct {
	read  int
	write *writeOp
}

// byDue sorts steps by their due times.
type byDue struct {
	due   []time.Duration
	steps []step
}

func (b byDue) Len() int           { return len(b.due) }
func (b byDue) Less(i, j int) bool { return b.due[i] < b.due[j] }
func (b byDue) Swap(i, j int) {
	b.due[i], b.due[j] = b.due[j], b.due[i]
	b.steps[i], b.steps[j] = b.steps[j], b.steps[i]
}

// freshEntries are new log entries for the read workloads' maintenance
// cycles: logged sessions replayed by their users a day after the log
// ends.
func (r *run) freshEntries() []querylog.Entry {
	var out []querylog.Entry
	for len(out) < 20*maintenanceCycles {
		s := r.w.Sessions[r.rng.Intn(len(r.w.Sessions))]
		shift := r.w.End.Add(24*time.Hour + time.Duration(len(out))*time.Hour).Sub(s.Entries[0].Time)
		for _, e := range s.Entries {
			e.Time = e.Time.Add(shift)
			out = append(out, e)
		}
	}
	return out
}

// writeOp is one write-path operation: posting one log entry, or the
// maintenance cycle that follows a slice of posts.
type writeOp struct {
	entry *querylog.Entry
	cycle *cycle
}

// cycle is one maintenance cycle: refresh, fold users in, post the
// warm batch.
type cycle struct {
	entries []querylog.Entry // the slice of posts before it
	users   []string
	batch   []Req
}

// learnsPerCycle is how many users a maintenance cycle folds in.
const learnsPerCycle = 3

// writePlan splits entries into maintenanceCycles equal slices, each
// followed by its cycle. A cycle folds in the held-back users that have
// posted entries by then, in turn, else the first users of its slice.
func (r *run) writePlan(entries []querylog.Entry) ([]writeOp, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("no entries to replay")
	}
	per := (len(entries) + maintenanceCycles - 1) / maintenanceCycles
	batchRNG := rand.New(rand.NewSource(r.o.Seed ^ 0xba7c4))
	var ops []writeOp
	for c := 0; c*per < len(entries); c++ {
		chunk := entries[c*per : min(len(entries), (c+1)*per)]
		for j := range chunk {
			ops = append(ops, writeOp{entry: &chunk[j]})
		}
		var candidates []string
		for _, u := range r.w.HeldUsers {
			if postedBy(entries[:c*per+len(chunk)], u) {
				candidates = append(candidates, u)
			}
		}
		if len(candidates) == 0 {
			for _, e := range chunk {
				if !slices.Contains(candidates, e.UserID) {
					candidates = append(candidates, e.UserID)
				}
			}
		}
		var users []string
		for k := 0; k < min(learnsPerCycle, len(candidates)); k++ {
			users = append(users, candidates[(c*learnsPerCycle+k)%len(candidates)])
		}
		batch := r.w.WarmBatch(batchRNG, fmt.Sprintf("batch%d", c), warmHeads, warmLanes, r.w.End.Add(time.Duration(48+c)*time.Hour))
		ops = append(ops, writeOp{cycle: &cycle{entries: chunk, users: users, batch: batch}})
	}
	return ops, nil
}

// maintenance runs the write plan of entries back to back: the read
// workloads' maintenance cycles, after their serving phases.
func (r *run) maintenance(cli *Client, entries []querylog.Entry) error {
	ops, err := r.writePlan(entries)
	if err != nil {
		return err
	}
	ph := &Phase{Name: "maintenance"}
	start := time.Now()
	for _, o := range ops {
		r.write(cli, ph, o)
	}
	ph.Elapsed = time.Since(start)
	r.phases = append(r.phases, ph)
	return nil
}

// write runs one write operation, accounting it in ph and recording the
// cycle latencies.
func (r *run) write(cli *Client, ph *Phase, o writeOp) {
	if e := o.entry; e != nil {
		body := map[string]string{"user": e.UserID, "query": e.Query, "clickedUrl": e.ClickedURL, "at": e.Time.UTC().Format(time.RFC3339)}
		r.op(ph, cli.JSON(r.ctx, http.MethodPost, "/v1/log", body, nil))
		return
	}
	c := o.cycle
	var rr struct {
		Generation uint64 `json:"generation"`
	}
	t0 := time.Now()
	if err := cli.JSON(r.ctx, http.MethodPost, "/v1/refresh", map[string]string{}, &rr); r.op(ph, err) {
		r.record(&r.refreshMS, t0, rr.Generation)
	}
	for _, u := range c.users {
		t0 = time.Now()
		if err := cli.JSON(r.ctx, http.MethodPost, "/v1/learn", map[string]string{"user": u}, &rr); r.op(ph, err) {
			r.record(&r.learnMS, t0, rr.Generation)
		}
	}
	t0 = time.Now()
	if err := r.warmBatch(cli, c.batch); r.op(ph, err) {
		r.record(&r.batchMS, t0, 0)
	}
	r.mu.Lock()
	r.cycles = append(r.cycles, c)
	r.mu.Unlock()
}

// record appends the time since t0 (ms) to xs and announces gen.
func (r *run) record(xs *[]float64, t0 time.Time, gen uint64) {
	d := float64(time.Since(t0)) / 1e6
	r.mu.Lock()
	defer r.mu.Unlock()
	*xs = append(*xs, d)
	if gen > 0 {
		r.announced[gen] = true
	}
}

func postedBy(entries []querylog.Entry, user string) bool {
	for _, e := range entries {
		if e.UserID == user {
			return true
		}
	}
	return false
}

// op accounts one write-path or probe operation; it reports success.
func (r *run) op(ph *Phase, err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	ph.Sent++
	if err != nil {
		ph.Failed++
		r.logf("operation failed: %v", err)
		return false
	}
	ph.OK++
	return true
}

// warmBatch posts the batch and gates every item answer.
func (r *run) warmBatch(cli *Client, batch []Req) error {
	items := make([]wireRequest, len(batch))
	for i, q := range batch {
		items[i] = q.wire()
	}
	var resp struct {
		Results []struct {
			Status   int             `json:"status"`
			Response json.RawMessage `json:"response"`
		} `json:"results"`
	}
	if err := cli.JSON(r.ctx, http.MethodPost, "/v1/suggest/batch", map[string]any{"requests": items}, &resp); err != nil {
		return err
	}
	if len(resp.Results) != len(batch) {
		return fmt.Errorf("batch of %d answered %d items", len(batch), len(resp.Results))
	}
	for i, it := range resp.Results {
		if it.Status != http.StatusOK {
			return fmt.Errorf("batch item %s: status %d", batch[i].ID, it.Status)
		}
		if _, err := r.gate.Check(batch[i], it.Response); err != nil {
			return err
		}
	}
	return nil
}

// probes asks every probe three ways — the default path twice (so the
// second answer is a cache hit) and once with noCache — and requires
// the cached and uncached answers to be identical. It scores α-nDCG@10
// of the served list against the pool of the hitting, relevance and
// mmr lists.
func (r *run) probes(cli *Client) error {
	ph := &Phase{Name: "probes"}
	defer func() { r.phases = append(r.phases, ph) }()
	subtopics := func(q string) []int { return r.w.Synth.QueryFacets(querylog.NormalizeQuery(q)) }
	var scores []float64
	for i, p := range r.w.Probes(probeCount) {
		q := Req{ID: fmt.Sprintf("probe-%d", i), User: p.User, Query: p.Query, K: suggestK}
		var answers [5]suggestResponse
		for j, strategy := range []string{"", "", "", "relevance", "mmr"} {
			qq := q
			qq.NoCache = j >= 2
			a, err := cli.Suggest(r.ctx, qq, strategy, r.gate)
			if !r.op(ph, err) {
				continue
			}
			answers[j] = a
		}
		if !sameLists(answers[1], answers[2]) {
			r.gate.Fail(fmt.Errorf("%s: cached answer %v differs from the uncached %v", q.ID, answers[1].Suggestions, answers[2].Suggestions))
		}
		var pool []string
		seen := map[string]bool{}
		for _, a := range answers {
			for _, s := range a.Diversified {
				if !seen[s] {
					seen[s] = true
					pool = append(pool, s)
				}
			}
		}
		if p.Ambiguous {
			scores = append(scores, metrics.AlphaNDCG(answers[1].Suggestions, pool, subtopics, 0.5))
		}
	}
	r.m["alpha_ndcg10"] = mean(scores)
	r.logf("probes: %d probes answered identically cached and uncached; mean alpha-nDCG@10 %.4f over the %d ambiguous ones", probeCount, r.m["alpha_ndcg10"], len(scores))
	return nil
}

// replica fetches the serving snapshot image, starts image-loaded
// replicas and times each to its first 200; the last one must answer
// every probe exactly like the primary.
func (r *run) replica(cli *Client) error {
	ph := &Phase{Name: "replica"}
	defer func() { r.phases = append(r.phases, ph) }()
	status, img, err := cli.Do(r.ctx, http.MethodGet, "/v1/snapshot", nil, "")
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("GET /v1/snapshot: status %d: %v", status, err)
	}
	path := filepath.Join(r.dir, "snapshot.img")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		return err
	}
	var ready []float64
	var last *Proc
	for i := 0; i < replicaStarts; i++ {
		p, err := StartProc(r.ctx, r.o.Server, []string{"-snapshot-load", path}, filepath.Join(r.dir, "replica.err"))
		if err != nil {
			return err
		}
		ready = append(ready, float64(p.Ready)/1e6)
		if i < replicaStarts-1 {
			p.Stop()
		} else {
			last = p
		}
	}
	defer last.Stop()
	r.m["replica_ready_ms"] = median(ready)
	rc := NewClient(last.Addr, 1)
	defer rc.Close()
	for i, p := range r.w.Probes(probeCount) {
		q := Req{ID: fmt.Sprintf("replica-%d", i), User: p.User, Query: p.Query, K: suggestK, NoCache: true}
		a, err := cli.Suggest(r.ctx, q, "", r.gate)
		if !r.op(ph, err) {
			continue
		}
		b, err := rc.Suggest(r.ctx, q, "", r.gate)
		if !r.op(ph, err) {
			continue
		}
		if !sameLists(a, b) {
			r.gate.Fail(fmt.Errorf("%s: replica answered %v, primary %v", q.ID, b.Suggestions, a.Suggestions))
		}
	}
	r.logf("replica: %d-byte image, ready after %s ms (median of %d starts)", len(img), fmtFloats(ready), replicaStarts)
	return nil
}

// traffic reports the measured share of every traffic property an
// optimisation could depend on, each with its base.
func (r *run) traffic(before, after Counters, steady *Phase) {
	hits := before.Delta(after, "stats.cache.hits")
	misses := before.Delta(after, "stats.cache.misses")
	chits := before.Delta(after, "metrics.pqsda_compact_cache_hits_total")
	cmiss := before.Delta(after, "metrics.pqsda_compact_cache_misses_total")
	seeds := map[string]bool{}
	for _, q := range r.steadyReqs {
		seeds[q.seedKey()] = true
	}
	r.m["suggestcache.hit_ratio"] = ratio(hits, hits+misses)
	r.m["suggestcache.lookups"] = hits + misses
	r.m["core.compact_cache_hit_ratio"] = ratio(chits, chits+cmiss)
	r.m["traffic.distinct_seed_sets"] = float64(len(seeds))
	r.logf("traffic (steady phase): suggestion-cache hits %.0f of %.0f lookups (%.3f); compact-cache hits %.0f of %.0f lookups (%.3f); %d distinct seed sets in %d requests against a 128-entry compact cache",
		hits, hits+misses, r.m["suggestcache.hit_ratio"], chits, chits+cmiss, r.m["core.compact_cache_hit_ratio"], len(seeds), len(r.steadyReqs))
}

// finish assembles the outcome: per-phase accounting, validity fields,
// the gate verdict and the metrics of the requested kind.
func (r *run) finish() {
	for _, p := range r.phases {
		r.logf("%s", p)
		r.out.Attempted += p.Sent
		r.out.Failed += p.Failed
	}
	mism, first := r.gate.Mismatches()
	r.out.Failed += r.gate.External()
	r.out.Correct = mism == 0
	r.logf("gate: %d mismatches, %d empty answers%s", mism, r.gate.Empty(), firstOf(first))
	if r.out.Attempted > 0 {
		r.m["success_ratio"] = float64(r.out.Attempted-r.out.Failed) / float64(r.out.Attempted)
	}
	for _, d := range endToEnd {
		if !r.o.Trace {
			r.out.Metrics[d.Name] = Metric{r.m[d.Name], d.Unit}
		}
	}
	if r.o.Trace {
		for _, d := range perLayer {
			v := r.m[d.Name]
			if math.IsNaN(v) {
				// A layer this workload never reached (the kernels on an
				// all-hit stream): nothing measured.
				r.logf("metric %s: no samples on this workload, reported as 0", d.Name)
				v = 0
			}
			r.out.Metrics[d.Name] = Metric{v, d.Unit}
		}
	}
	names := make([]string, 0, len(r.out.Metrics))
	for k := range r.out.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		r.logf("metric %-34s %14.4f %s", k, r.out.Metrics[k].Value, r.out.Metrics[k].Unit)
	}
}

func firstOf(s string) string {
	if s == "" {
		return ""
	}
	return "; first: " + s
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, ", ")
}
