package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Client talks to one pqsda server over loopback HTTP through at most
// conns connections.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for addr (host:port) limited to conns
// connections.
func NewClient(addr string, conns int) *Client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &Client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

// Close drops the idle connections.
func (c *Client) Close() { c.hc.CloseIdleConnections() }

// Do sends one request and returns the status and the whole body.
func (c *Client) Do(ctx context.Context, method, path string, body []byte, rid string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if rid != "" {
		req.Header.Set("X-Request-Id", rid)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// JSON sends a request and decodes a 200 answer into out (nil: discard).
func (c *Client) JSON(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	status, resp, err := c.Do(ctx, method, path, body, "")
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(resp))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(resp, out); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// wireRequest is the /v1/suggest POST body.
type wireRequest struct {
	User     string        `json:"user,omitempty"`
	Query    string        `json:"query"`
	K        int           `json:"k"`
	Context  []wireContext `json:"context,omitempty"`
	At       string        `json:"at,omitempty"`
	NoCache  bool          `json:"noCache,omitempty"`
	Strategy string        `json:"strategy,omitempty"`
	Debug    string        `json:"debug,omitempty"`
}

type wireContext struct {
	Query string `json:"query"`
	At    string `json:"at"`
}

func (r Req) wire() wireRequest {
	w := wireRequest{User: r.User, Query: r.Query, K: r.K, NoCache: r.NoCache}
	if !r.At.IsZero() {
		w.At = r.At.UTC().Format(time.RFC3339)
	}
	for _, c := range r.Context {
		w.Context = append(w.Context, wireContext{Query: c.Query, At: c.Time.UTC().Format(time.RFC3339)})
	}
	return w
}

// body encodes r as a /v1/suggest POST body.
func (r Req) body(debug string) []byte {
	w := r.wire()
	w.Debug = debug
	b, _ := json.Marshal(w) // plain strings and ints: cannot fail
	return b
}

// Suggest sends r and gates a 200 answer.
func (c *Client) Suggest(ctx context.Context, r Req, strategy string, gate *Gate) (suggestResponse, error) {
	w := r.wire()
	w.Strategy = strategy
	body, _ := json.Marshal(w)
	status, resp, err := c.Do(ctx, http.MethodPost, "/v1/suggest", body, r.ID)
	if err != nil {
		return suggestResponse{}, err
	}
	if status != http.StatusOK {
		return suggestResponse{}, fmt.Errorf("%s: status %d: %s", r.ID, status, bytes.TrimSpace(resp))
	}
	return gate.Check(r, resp)
}

// Phase accounts one phase of a run: what was sent, what succeeded and
// failed, each success's latency measured from its due time, and how
// late the generator sent each request.
type Phase struct {
	Name      string
	Rate      float64 // offered rate, requests/s (0: closed loop)
	Sent      int
	OK        int
	Failed    int
	Latencies []float64 // ms, successes only
	Lateness  []float64 // ms, every send
	Elapsed   time.Duration
	// Traced and Untraced split Latencies when the phase interleaved
	// traced and untraced sends.
	Traced, Untraced []float64
}

// p returns the q-quantile of the success latencies in ms.
func (p *Phase) p(q float64) float64 { return quantile(append([]float64(nil), p.Latencies...), q) }

func (p *Phase) String() string {
	s := fmt.Sprintf("phase %-22s sent=%6d ok=%6d failed=%4d elapsed=%.2fs", p.Name, p.Sent, p.OK, p.Failed, p.Elapsed.Seconds())
	if p.Rate > 0 {
		s += fmt.Sprintf(" offered=%.0f/s lateness.p99=%.3fms", p.Rate, quantile(append([]float64(nil), p.Lateness...), 0.99))
	}
	if len(p.Latencies) > 0 {
		s += fmt.Sprintf(" p50=%.3fms p99=%.3fms (n=%d, %d beyond p99)", p.p(0.5), p.p(0.99), len(p.Latencies), beyond(len(p.Latencies), 0.99))
	}
	return s
}

// beyond is how many of n samples lie above the q-quantile.
func beyond(n int, q float64) int { return int(math.Floor(float64(n) * (1 - q))) }

// sendFn sends operation i and reports whether it succeeded and when
// its answer arrived (zero: when sendFn returned), so that checking the
// answer is not counted as latency.
type sendFn func(ctx context.Context, i int) (ok bool, answered time.Time)

// outcome is what became of one scheduled operation.
type outcome struct {
	sent, ok  bool
	lat, late float64 // ms: from due time to answer, and to send
}

// schedule runs operation i at start + due[i] (due ascending) from
// workers goroutines, whatever happened to earlier operations, and
// times each from its due time.
func schedule(ctx context.Context, due []time.Duration, workers int, send sendFn) ([]outcome, time.Duration) {
	out := make([]outcome, len(due))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) || ctx.Err() != nil {
					return
				}
				at := start.Add(due[i])
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
				}
				o := &out[i]
				o.sent = true
				o.late = float64(time.Since(at)) / 1e6
				ok, answered := send(ctx, i)
				if answered.IsZero() {
					answered = time.Now()
				}
				o.ok = ok
				o.lat = float64(answered.Sub(at)) / 1e6
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// evenly returns n due times at the given rate.
func evenly(n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return due
}

// phaseOf accounts the outcomes at idx (in due order) as one phase;
// traced, when non-nil, splits the latencies by whether request k of
// the phase carried tracing.
func phaseOf(name string, rate float64, elapsed time.Duration, outs []outcome, idx []int, traced func(k int) bool) *Phase {
	p := &Phase{Name: name, Rate: rate, Elapsed: elapsed}
	for k, i := range idx {
		o := outs[i]
		if !o.sent {
			continue // cancelled before sending
		}
		p.Sent++
		p.Lateness = append(p.Lateness, o.late)
		if !o.ok {
			p.Failed++
			continue
		}
		p.OK++
		p.Latencies = append(p.Latencies, o.lat)
		if traced != nil {
			if traced(k) {
				p.Traced = append(p.Traced, o.lat)
			} else {
				p.Untraced = append(p.Untraced, o.lat)
			}
		}
	}
	return p
}

// OpenLoop sends n requests on a fixed schedule — request i is due at
// start + i/rate — from workers goroutines. traced, when non-nil, marks
// the requests whose latency is also recorded in Phase.Traced.
func OpenLoop(ctx context.Context, name string, n int, rate float64, workers int, send sendFn, traced func(i int) bool) *Phase {
	outs, elapsed := schedule(ctx, evenly(n, rate), workers, send)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return phaseOf(name, rate, elapsed, outs, idx, traced)
}

// ClosedLoop keeps workers requests in flight for d and returns the
// phase; its OK/Elapsed is the saturation throughput.
func ClosedLoop(ctx context.Context, name string, d time.Duration, workers int, send sendFn) *Phase {
	var next atomic.Int64
	var okN, failN atomic.Int64
	start := time.Now()
	var mu sync.Mutex
	var lats []float64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []float64
			for time.Since(start) < d && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				if ok, answered := send(ctx, i); ok {
					okN.Add(1)
					mine = append(mine, float64(answered.Sub(t0))/1e6)
				} else {
					failN.Add(1)
				}
			}
			mu.Lock()
			lats = append(lats, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return &Phase{Name: name, Sent: int(next.Load()), OK: int(okN.Load()), Failed: int(failN.Load()),
		Latencies: lats, Elapsed: time.Since(start)}
}

// ladderRates is the fixed capacity ladder: 20 req/s growing 8% a step.
func ladderRates() []float64 {
	var out []float64
	for r := 20.0; r < 20000; r *= 1.08 {
		out = append(out, math.Round(r))
	}
	return out
}

// sloP99 is the server's default latency objective (-slo-latency-p99).
const sloP99 = 250.0 // ms

// stepPasses reports whether a ladder step kept its p99 within the SLO
// with no failures and no growing backlog: the generator's mean
// lateness over the last quarter of the step may not exceed that over
// the first quarter by more than a fifth of the SLO.
func stepPasses(p *Phase) bool {
	if p.Failed > 0 || p.Sent == 0 || p.p(0.99) > sloP99 {
		return false
	}
	q := len(p.Lateness) / 4
	if q == 0 {
		return true
	}
	return mean(p.Lateness[len(p.Lateness)-q:])-mean(p.Lateness[:q]) <= sloP99/5
}

// Capacity finds the highest ladder rate that passes. It probes the
// saturation throughput closed-loop, starts the ladder at the highest
// rung at or below 90% of it and climbs until a rung fails (descending
// instead when the first rung fails). step builds and runs one rung.
func Capacity(ctx context.Context, probe func() *Phase, step func(rate float64) *Phase) (float64, []*Phase) {
	sat := probe()
	phases := []*Phase{sat}
	x := float64(sat.OK) / sat.Elapsed.Seconds()
	rates := ladderRates()
	i := 0
	for i+1 < len(rates) && rates[i+1] <= 0.9*x {
		i++
	}
	best := 0.0
	for tries := 0; tries < 8 && i >= 0 && i < len(rates) && ctx.Err() == nil; tries++ {
		p := step(rates[i])
		phases = append(phases, p)
		if stepPasses(p) {
			best = rates[i]
			i++
			continue
		}
		if best > 0 {
			break
		}
		i--
	}
	return best, phases
}
