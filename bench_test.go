package pqsda

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation section (Fig. 3a–d, 4, 5a–d, 6, 7), each regenerating the
// figure's series through internal/experiments, plus component-level
// micro-benchmarks for the pipeline stages. Run:
//
//	go test -bench=. -benchmem
//
// The figure values printed by cmd/benchfigs (and recorded in
// EXPERIMENTS.md) come from the same drivers.

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/querylog"
	"repro/internal/synth"
	"repro/internal/topicmodel"
)

var (
	benchSetupOnce sync.Once
	benchSetup     *experiments.Setup
)

// figureSetup builds the shared experiment world once; individual
// figure benches reuse it (and its cached personalization fixtures).
func figureSetup() *experiments.Setup {
	benchSetupOnce.Do(func() {
		benchSetup = experiments.NewSetup(experiments.SmallScale(77))
	})
	return benchSetup
}

func benchFigure(b *testing.B, id string) {
	s := figureSetup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := s.RunFigure(id)
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig3aDiversityRaw regenerates Fig. 3(a): diversity of the
// diversification stage on raw click/bipartite weights.
func BenchmarkFig3aDiversityRaw(b *testing.B) { benchFigure(b, "3a") }

// BenchmarkFig3bDiversityWeighted regenerates Fig. 3(b) (cf·iqf).
func BenchmarkFig3bDiversityWeighted(b *testing.B) { benchFigure(b, "3b") }

// BenchmarkFig3cRelevanceRaw regenerates Fig. 3(c).
func BenchmarkFig3cRelevanceRaw(b *testing.B) { benchFigure(b, "3c") }

// BenchmarkFig3dRelevanceWeighted regenerates Fig. 3(d).
func BenchmarkFig3dRelevanceWeighted(b *testing.B) { benchFigure(b, "3d") }

// BenchmarkFig4Perplexity regenerates Fig. 4: held-out perplexity of
// the UPM vs LDA, PTM1, PTM2, TOT, MWM, TUM, CTM, SSTM.
func BenchmarkFig4Perplexity(b *testing.B) { benchFigure(b, "4") }

// BenchmarkFig5aDiversityPersonalizedRaw regenerates Fig. 5(a).
func BenchmarkFig5aDiversityPersonalizedRaw(b *testing.B) { benchFigure(b, "5a") }

// BenchmarkFig5bDiversityPersonalizedWeighted regenerates Fig. 5(b).
func BenchmarkFig5bDiversityPersonalizedWeighted(b *testing.B) { benchFigure(b, "5b") }

// BenchmarkFig5cPPRRaw regenerates Fig. 5(c).
func BenchmarkFig5cPPRRaw(b *testing.B) { benchFigure(b, "5c") }

// BenchmarkFig5dPPRWeighted regenerates Fig. 5(d).
func BenchmarkFig5dPPRWeighted(b *testing.B) { benchFigure(b, "5d") }

// BenchmarkFig6HPR regenerates Fig. 6: oracle-graded personalized
// relevance on the 6-point scale.
func BenchmarkFig6HPR(b *testing.B) { benchFigure(b, "6") }

// BenchmarkFig7Efficiency regenerates Fig. 7: suggestion latency as the
// utilized query count grows.
func BenchmarkFig7Efficiency(b *testing.B) { benchFigure(b, "7") }

// --- Component micro-benchmarks -------------------------------------

var (
	benchEngineOnce sync.Once
	benchEngine     *core.Engine
	benchQueries    []string
)

func componentFixture(b *testing.B) (*core.Engine, []string) {
	benchEngineOnce.Do(func() {
		w := synth.Generate(synth.Config{Seed: 5, NumUsers: 40, SessionsPerUser: 25})
		clean, _ := querylog.Clean(w.Log, querylog.CleanerConfig{})
		var err error
		benchEngine, err = core.NewEngine(clean, core.Config{
			Weighting: bipartite.CFIQF,
			Compact:   bipartite.CompactConfig{Budget: 150},
			UPM:       topicmodel.UPMConfig{K: 8, Iterations: 30, Seed: 5, HyperRounds: 1, HyperIters: 5},
		})
		if err != nil {
			panic(err)
		}
		freq := clean.QueryFrequency()
		for q, n := range freq {
			if n >= 5 {
				benchQueries = append(benchQueries, q)
			}
		}
	})
	if len(benchQueries) == 0 {
		b.Skip("no frequent queries in fixture")
	}
	return benchEngine, benchQueries
}

// BenchmarkSuggestDiversified measures one diversification-only
// suggestion (compact build + Eq. 15 solve + hitting-time selection).
func BenchmarkSuggestDiversified(b *testing.B) {
	e, qs := componentFixture(b)
	now := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.SuggestDiversified(qs[i%len(qs)], nil, now, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuggestDiversifiedArena is the same serve loop on an
// engine round-tripped through the wire format, so the compact
// representation, symbols and profiles are arena-backed (flat arrays
// aliasing one loaded image) instead of individually heap-allocated.
// The guard in `make bench-guard` holds it to the same per-request
// allocation budget as the builder-backed engine above: the backing
// swap must be invisible to the serve path.
func BenchmarkSuggestDiversifiedArena(b *testing.B) {
	e, qs := componentFixture(b)
	benchArenaOnce.Do(func() {
		img, err := e.WireImage()
		if err != nil {
			panic(err)
		}
		if benchArenaEngine, err = core.LoadEngine(bytes.NewReader(img)); err != nil {
			panic(err)
		}
	})
	now := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := benchArenaEngine.SuggestDiversified(qs[i%len(qs)], nil, now, 10); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	benchArenaOnce   sync.Once
	benchArenaEngine *core.Engine
)

// BenchmarkSuggestPersonalized measures the full pipeline per query.
func BenchmarkSuggestPersonalized(b *testing.B) {
	e, qs := componentFixture(b)
	users := e.Log().Users()
	now := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Do(context.Background(), core.SuggestRequest{User: users[i%len(users)], Query: qs[i%len(qs)], At: now, K: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildRepresentation measures multi-bipartite construction
// from a cleaned log.
func BenchmarkBuildRepresentation(b *testing.B) {
	w := synth.Generate(synth.Config{Seed: 6, NumUsers: 40, SessionsPerUser: 25})
	clean, _ := querylog.Clean(w.Log, querylog.CleanerConfig{})
	sessions := querylog.Sessionize(clean, querylog.SessionizerConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bipartite.BuildFromSessions(sessions, bipartite.CFIQF)
	}
}

// BenchmarkTrainUPM measures offline user profiling (30 sweeps, one
// hyperparameter round).
func BenchmarkTrainUPM(b *testing.B) {
	w := synth.Generate(synth.Config{Seed: 6, NumUsers: 20, SessionsPerUser: 20})
	sessions := querylog.Sessionize(w.Log, querylog.SessionizerConfig{})
	corpus := topicmodel.BuildCorpus(sessions, w.NormalizeTime)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topicmodel.TrainUPM(corpus, topicmodel.UPMConfig{
			K: 8, Iterations: 30, Seed: int64(i), HyperRounds: 1, HyperIters: 5,
		})
	}
}

// BenchmarkSyntheticGeneration measures the workload generator itself.
func BenchmarkSyntheticGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		synth.Generate(synth.Config{Seed: int64(i), NumUsers: 50, SessionsPerUser: 20})
	}
}
