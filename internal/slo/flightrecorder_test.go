package slo

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func testEvent(i int) WideEvent {
	ev := WideEvent{
		UnixNano:      time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC).UnixNano() + int64(i)*1e6,
		Outcome:       OutcomeOK,
		Status:        200,
		K:             10,
		Generation:    7,
		TotalNs:       int64(i+1) * 1e6,
		CompactNs:     2e5,
		SolveNs:       3e5,
		HittingNs:     4e5,
		PersonalizeNs: 1e5,
	}
	ev.SetRequestID("req0000000000001")
	ev.SetTraceID("trc0000000000001")
	ev.SetStrategy("hitting")
	return ev
}

func TestFlightRecorderWraparound(t *testing.T) {
	r := NewFlightRecorder(16) // minimum size
	const total = 40
	for i := 0; i < total; i++ {
		ev := testEvent(i)
		r.Record(&ev)
	}
	if got := r.Recorded(); got != total {
		t.Fatalf("Recorded() = %d, want %d", got, total)
	}
	events := r.Events()
	if len(events) != r.Size() {
		t.Fatalf("len(Events()) = %d, want ring size %d", len(events), r.Size())
	}
	// The ring must retain exactly the LAST Size() events, oldest first.
	for i, ev := range events {
		want := uint64(total - r.Size() + i + 1)
		if ev.Seq != want {
			t.Fatalf("events[%d].Seq = %d, want %d", i, ev.Seq, want)
		}
	}
}

func TestFlightRecorderSizing(t *testing.T) {
	if got := NewFlightRecorder(0).Size(); got != DefaultFlightRecorderSize {
		t.Fatalf("size 0 → %d, want default %d", got, DefaultFlightRecorderSize)
	}
	if got := NewFlightRecorder(3).Size(); got != 16 {
		t.Fatalf("size 3 → %d, want floor 16", got)
	}
	// A nil recorder must absorb records silently (SLO disabled).
	var nilRec *FlightRecorder
	ev := testEvent(0)
	nilRec.Record(&ev)
	if nilRec.Events() != nil {
		t.Fatal("nil recorder Events() should be nil")
	}
}

func TestFlightRecorderJSONL(t *testing.T) {
	r := NewFlightRecorder(16)
	for i := 0; i < 3; i++ {
		ev := testEvent(i)
		ev.CacheHit = i == 1
		ev.Degraded = i == 2
		if i == 2 {
			ev.Outcome = OutcomeDegraded
		}
		r.Record(&ev)
	}
	var buf bytes.Buffer
	n, err := r.WriteJSONL(&buf)
	if err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	if n != 3 {
		t.Fatalf("WriteJSONL wrote %d events, want 3", n)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	// Every line must be valid standalone JSON with the wide-event schema.
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		for _, key := range []string{
			"seq", "at", "requestId", "traceId", "outcome", "status",
			"strategy", "k", "generation", "cacheHit", "degraded",
			"brownout", "breakerState", "gateDepth", "totalMs",
			"compactMs", "solveMs", "hittingMs", "personalizeMs",
		} {
			if _, ok := m[key]; !ok {
				t.Fatalf("line %d missing key %q: %s", i, key, line)
			}
		}
		if m["requestId"] != "req0000000000001" {
			t.Fatalf("line %d requestId = %v", i, m["requestId"])
		}
		if m["strategy"] != "hitting" {
			t.Fatalf("line %d strategy = %v", i, m["strategy"])
		}
		if _, err := time.Parse(time.RFC3339Nano, m["at"].(string)); err != nil {
			t.Fatalf("line %d timestamp %v unparseable: %v", i, m["at"], err)
		}
	}
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[2]), &last); err != nil {
		t.Fatal(err)
	}
	if last["outcome"] != "degraded" || last["degraded"] != true {
		t.Fatalf("last line disposition wrong: %s", lines[2])
	}
}

func TestFlightRecorderDumpToDir(t *testing.T) {
	r := NewFlightRecorder(16)
	for i := 0; i < 5; i++ {
		ev := testEvent(i)
		r.Record(&ev)
	}
	dir := t.TempDir()
	path, err := r.DumpToDir(dir)
	if err != nil {
		t.Fatalf("DumpToDir: %v", err)
	}
	if filepath.Dir(path) != dir {
		t.Fatalf("dump path %q not in %q", path, dir)
	}
	if !strings.HasPrefix(filepath.Base(path), "flightrecorder-5-") {
		t.Fatalf("dump name %q should start with flightrecorder-<seq>-", filepath.Base(path))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 5 {
		t.Fatalf("dump has %d lines, want 5", lines)
	}
	if got := r.Dumps(); got != 1 {
		t.Fatalf("Dumps() = %d, want 1", got)
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	// Race-detector coverage of the slot locking: writers hammering the ring
	// while readers dump it. Every event a reader returns must be
	// internally consistent (Seq matches the payload the writer stored).
	r := NewFlightRecorder(64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ev := testEvent(i)
				ev.Generation = uint64(w)
				r.Record(&ev)
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		events := r.Events()
		for j := 1; j < len(events); j++ {
			if events[j].Seq <= events[j-1].Seq {
				t.Errorf("Events() not strictly ordered: %d then %d", events[j-1].Seq, events[j].Seq)
			}
		}
		var sink bytes.Buffer
		if _, err := r.WriteJSONL(&sink); err != nil {
			t.Errorf("WriteJSONL under load: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}

// BenchmarkFlightRecorderEmit is the CI alloc guard: recording one wide
// event must not touch the heap (make bench-guard enforces 0 allocs/op).
func BenchmarkFlightRecorderEmit(b *testing.B) {
	r := NewFlightRecorder(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := WideEvent{
			UnixNano:   int64(i),
			Outcome:    OutcomeOK,
			Status:     200,
			K:          10,
			Generation: 3,
			TotalNs:    1e6,
		}
		ev.SetRequestID("0123456789abcdef")
		ev.SetTraceID("fedcba9876543210")
		ev.SetStrategy("hitting")
		r.Record(&ev)
	}
}
