package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// buildServer builds cmd/pqsda from the enclosing repository.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "pqsda")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pqsda")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building cmd/pqsda: %v\n%s", err, out)
	}
	return bin
}

// benchmarkFile is the metric part of the repository's BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricTablesMatchBenchmarkFile keeps the program's metric tables
// and BENCHMARK.json in step.
func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: the program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: program %+v, BENCHMARK.json %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", endToEnd, bf.EndToEnd)
	same("per_layer", perLayer, bf.PerLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i])
		}
	}
}

// TestEveryWorkloadReportsEveryMetric runs each workload on the tiny
// world, untraced and traced, and checks the result line: the gate
// passed, nothing failed, and every metric of BENCHMARK.json is there
// with its unit.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	bin := buildServer(t)
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := Options{Workload: w, Seed: 5, Seconds: 1, Trace: trace, Scale: "tiny", Server: bin, Work: t.TempDir()}
			out, err := Run(context.Background(), o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			line, err := json.Marshal(out)
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]Metric
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w, trace, got.Correct, got.Attempted, got.Failed, strings.Join(out.Report, "\n"))
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(got.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := got.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w, trace, d.Name, m, d.Unit)
				}
			}
		}
	}
}

// TestGateTripsOnCorruptedResponses corrupts real answers of a tiny
// server, directly and through a proxy in front of it, and requires the
// gate to count each corruption as a failure.
func TestGateTripsOnCorruptedResponses(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server")
	}
	bin := buildServer(t)
	w, err := NewWorld(5, scales["tiny"], false)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	logPath := filepath.Join(dir, "log.tsv")
	if err := w.WriteBuildLog(logPath); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	srv, err := StartProc(ctx, bin, []string{"-log", logPath}, filepath.Join(dir, "server.err"))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	gate := NewGate(w.Vocab)
	cli := NewClient(srv.Addr, 1)
	defer cli.Close()
	var q Req
	var body []byte
	for _, p := range w.Probes(probeCount) {
		q = Req{ID: "probe", User: p.User, Query: p.Query, K: suggestK}
		var status int
		status, body, err = cli.Do(ctx, http.MethodPost, "/v1/suggest", q.body(""), q.ID)
		if err != nil || status != http.StatusOK {
			t.Fatalf("suggest: status %d: %v", status, err)
		}
		if resp, err := gate.Check(q, body); err != nil {
			t.Fatalf("a real answer fails the gate: %v", err)
		} else if len(resp.Suggestions) >= 2 {
			break
		}
	}
	var real map[string]any
	if err := json.Unmarshal(body, &real); err != nil {
		t.Fatal(err)
	}
	list := func(k string) []any { return real[k].([]any) }
	corruptions := map[string]func(m map[string]any){
		"duplicate": func(m map[string]any) {
			m["suggestions"] = append(list("suggestions")[:1:1], list("suggestions")[:len(list("suggestions"))-1]...)
		},
		"echo": func(m map[string]any) { m["suggestions"] = append([]any{q.Query}, list("suggestions")[1:]...) },
		"out of vocab": func(m map[string]any) {
			m["suggestions"] = append([]any{"zzzz not a logged query"}, list("suggestions")[1:]...)
		},
		"too many":      func(m map[string]any) { m["suggestions"] = make([]any, suggestK+1) },
		"not permuted":  func(m map[string]any) { m["diversified"] = list("diversified")[1:] },
		"not json":      nil,
		"wrong lengths": func(m map[string]any) { m["suggestions"] = list("suggestions")[1:] },
	}
	for name, corrupt := range corruptions {
		bad := []byte("{truncated")
		if corrupt != nil {
			m := map[string]any{}
			for k, v := range real {
				m[k] = v
			}
			corrupt(m)
			bad, _ = json.Marshal(m)
		}
		before, _ := gate.Mismatches()
		if _, err := gate.Check(q, bad); err == nil {
			t.Errorf("%s: corrupted answer passed the gate", name)
		}
		if after, _ := gate.Mismatches(); after != before+1 {
			t.Errorf("%s: mismatches %d → %d, want one more", name, before, after)
		}
	}

	// End to end: a proxy duplicating the first suggestion of every
	// third answer makes exactly those requests fail.
	target, _ := url.Parse("http://" + srv.Addr)
	proxy := httputil.NewSingleHostReverseProxy(target)
	var n atomic.Int64
	proxy.ModifyResponse = func(resp *http.Response) error {
		if n.Add(1)%3 != 0 {
			return nil
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			return err
		}
		if s, ok := m["suggestions"].([]any); ok && len(s) >= 2 {
			s[1] = s[0]
		}
		raw, _ = json.Marshal(m)
		resp.Body = io.NopCloser(bytes.NewReader(raw))
		resp.ContentLength = int64(len(raw))
		resp.Header.Del("Content-Length")
		return nil
	}
	ps := httptest.NewServer(proxy)
	defer ps.Close()
	pcli := NewClient(strings.TrimPrefix(ps.URL, "http://"), 1)
	defer pcli.Close()
	reqs := make([]Req, 30)
	for i := range reqs {
		reqs[i] = q
	}
	pgate := NewGate(w.Vocab)
	ph := OpenLoop(ctx, "corrupted", len(reqs), 1000, 1, func(ctx context.Context, i int) (bool, time.Time) {
		_, err := pcli.Suggest(ctx, reqs[i], "", pgate)
		return err == nil, time.Time{}
	}, nil)
	mism, _ := pgate.Mismatches()
	if ph.Failed != 10 || mism != 10 {
		t.Errorf("proxy corrupting 10 of 30 answers: %d failed, %d gate mismatches; want 10 and 10", ph.Failed, mism)
	}
}
