package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Proc is one running pqsda process serving on a loopback port.
type Proc struct {
	cmd  *exec.Cmd
	Addr string
	// Ready is the time from process start to the first 200 from
	// /v1/health.
	Ready time.Duration
	done  chan error
	errf  *os.File
}

// freeAddr reserves a loopback port and releases it for the server.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// StartProc runs bin with args plus -serve on a free port, its stderr
// going to errPath, and waits until /v1/health answers 200.
func StartProc(ctx context.Context, bin string, args []string, errPath string) (*Proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	errf, err := os.Create(errPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(args, "-serve", addr)...)
	cmd.Stderr = errf
	p := &Proc{cmd: cmd, Addr: addr, done: make(chan error, 1), errf: errf}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		errf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() { p.done <- cmd.Wait() }()
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(150 * time.Second)
	for {
		resp, err := hc.Get("http://" + addr + "/v1/health")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				p.Ready = time.Since(start)
				return p, nil
			}
		}
		select {
		case werr := <-p.done:
			p.done <- werr
			p.Stop()
			return nil, fmt.Errorf("%s exited before serving: %v (see %s)", bin, werr, errPath)
		case <-ctx.Done():
			p.Stop()
			return nil, ctx.Err()
		case <-time.After(pollInterval(time.Since(start))):
		}
		if time.Now().After(deadline) {
			p.Stop()
			return nil, fmt.Errorf("%s not ready after 150s (see %s)", bin, errPath)
		}
	}
}

// pollInterval spaces the readiness polls: a fiftieth of the time
// waited so far, between 200 µs and 5 ms, so a start of a few
// milliseconds is timed to a fraction of a millisecond and a start of
// seconds is not slowed by the polling.
func pollInterval(waited time.Duration) time.Duration {
	return min(5*time.Millisecond, max(200*time.Microsecond, waited/50))
}

// Stop asks the server to drain (SIGTERM), kills it after 5 s, and
// waits for it to exit.
func (p *Proc) Stop() {
	defer p.errf.Close()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		_ = p.cmd.Process.Kill() // already dying: the wait below reaps it
	}
	select {
	case err := <-p.done:
		p.done <- err
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill() // drain overran; the wait below reaps it
		p.done <- <-p.done
	}
}

// RSSMiB reads the server's resident set size from /proc.
func (p *Proc) RSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("VmRSS not found")
}

// cpuTicks reads the server's user plus system CPU time in clock ticks
// from /proc.
func (p *Proc) cpuTicks() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15.
	f := strings.Fields(string(raw[strings.LastIndexByte(string(raw), ')')+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	return u + s, errors.Join(err1, err2)
}

// WaitIdle waits (up to 5 s) until the server used at most one clock
// tick of CPU over 200 ms: background work such as a garbage collection
// after a burst of refreshes would otherwise share the CPUs with what
// is timed next.
func (p *Proc) WaitIdle(ctx context.Context) error {
	prev, err := p.cpuTicks()
	if err != nil {
		return err
	}
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
		cur, err := p.cpuTicks()
		if err != nil {
			return err
		}
		if cur-prev <= 1 {
			return nil
		}
		prev = cur
	}
	return nil
}

// Counters is a flat view of the server's own telemetry: /v1/stats
// numbers by dotted path, /debug/vars memstats, and /metrics samples.
type Counters map[string]float64

// Scrape reads /v1/stats, /debug/vars and /metrics.
func (c *Client) Scrape(ctx context.Context) (Counters, error) {
	out := Counters{}
	var stats map[string]any
	if err := c.JSON(ctx, http.MethodGet, "/v1/stats", nil, &stats); err != nil {
		return nil, err
	}
	flatten("stats", stats, out)
	var vars map[string]any
	if err := c.JSON(ctx, http.MethodGet, "/debug/vars", nil, &vars); err != nil {
		return nil, err
	}
	if ms, ok := vars["memstats"].(map[string]any); ok {
		for _, k := range []string{"Mallocs", "PauseTotalNs"} {
			if v, ok := ms[k].(float64); ok {
				out["memstats."+k] = v
			}
		}
	}
	status, body, err := c.Do(ctx, http.MethodGet, "/metrics", nil, "")
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d: %v", status, err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out["metrics."+line[:i]] = v
		}
	}
	return out, nil
}

func flatten(prefix string, v any, out Counters) {
	switch x := v.(type) {
	case map[string]any:
		for k, vv := range x {
			flatten(prefix+"."+k, vv, out)
		}
	case float64:
		out[prefix] = x
	}
}

// Delta returns after[k] - c[k].
func (c Counters) Delta(after Counters, k string) float64 { return after[k] - c[k] }
