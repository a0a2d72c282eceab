package pqsda

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bipartite"
)

func TestReadLogFile(t *testing.T) {
	w := facadeWorld(t)
	path := filepath.Join(t.TempDir(), "log.tsv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteLog(w.Log, f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := ReadLogFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != w.Log.Len() {
		t.Fatalf("read %d entries, want %d", got.Len(), w.Log.Len())
	}
	if _, err := ReadLogFile(filepath.Join(t.TempDir(), "missing.tsv")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestNewEngineAdvanced(t *testing.T) {
	w := facadeWorld(t)
	e, err := NewEngineAdvanced(w.Log, AdvancedConfig{
		Weighting:           bipartite.Raw,
		Compact:             bipartite.CompactConfig{Budget: 30},
		SkipPersonalization: true,
		PoolFactor:          2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Rep().Weighting != bipartite.Raw {
		t.Error("advanced config weighting not honored")
	}
}

func TestFacadeExplainAndLearnUser(t *testing.T) {
	// The facade's Engine alias carries the full core API: Explain,
	// LearnUser, Save.
	w := facadeWorld(t)
	e, err := NewEngine(w.Log, Config{CompactBudget: 50, Topics: 4, TrainingIterations: 15})
	if err != nil {
		t.Fatal(err)
	}
	best, n := "", 0
	for q, f := range w.Log.QueryFrequency() {
		if f > n {
			best, n = q, f
		}
	}
	if err := e.LearnUser("newbie", w.Log.ByUser(w.UserIDs()[1])); err != nil {
		t.Fatal(err)
	}
	ex, err := e.Explain("newbie", best, nil, time.Now(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Candidates) == 0 {
		t.Fatal("no explained candidates")
	}
}

// Config.Precision only accepts float64: the float32 kernels are gone,
// and asking for them (or for any other width) is a configuration
// error rather than a silent float64 run.
func TestNewEnginePrecision(t *testing.T) {
	w := facadeWorld(t)
	for _, p := range []string{"float32", "f32", "bogus"} {
		_, err := NewEngine(w.Log, Config{CompactBudget: 30, DiversificationOnly: true, Precision: p})
		if err == nil || !strings.Contains(err.Error(), "float32 kernels were removed") {
			t.Errorf("Precision %q: err = %v, want the removal error", p, err)
		}
	}
	for _, p := range []string{"", "float64"} {
		if _, err := NewEngine(w.Log, Config{CompactBudget: 30, DiversificationOnly: true, Precision: p}); err != nil {
			t.Errorf("Precision %q: %v", p, err)
		}
	}
}
