package topicmodel

import (
	"testing"
)

// The parallel Gibbs sweep must be bit-identical to the sequential one:
// all UPM state is per-document and each document has its own RNG
// stream, and the hyperparameter objectives sum in a fixed order. Two
// sequential runs must agree exactly too.
func TestUPMParallelMatchesSequential(t *testing.T) {
	c := synthCorpus(t)
	cfg := UPMConfig{K: 5, Iterations: 25, Seed: 3, HyperRounds: 1, HyperIters: 5}
	seq, zSeq := trainUPM(c, cfg, 1)
	again, zAgain := trainUPM(c, cfg, 1)
	par, zPar := trainUPM(c, cfg, 4)
	assertSameUPM(t, "second sequential run", seq, again)
	assertSameUPM(t, "parallel run", seq, par)
	for d := range zSeq {
		assertSameTopics(t, "second sequential run", zSeq[d], zAgain[d])
		assertSameTopics(t, "parallel run", zSeq[d], zPar[d])
	}
	assertSameUPM(t, "TrainUPM", seq, TrainUPM(c, cfg))
}

// Degenerate fan-outs behave, and the deprecated Workers setting
// changes nothing but the stored config.
func TestUPMWorkersEdgeCases(t *testing.T) {
	c := synthCorpus(t)
	cfg := UPMConfig{K: 3, Iterations: 5, Seed: 1, HyperRounds: -1}
	want, _ := trainUPM(c, cfg, 1)
	for _, workers := range []int{-1, 0, 1, 100} {
		m, _ := trainUPM(c, cfg, workers)
		if m.NumDocs() != len(c.Docs) {
			t.Fatalf("workers=%d: NumDocs %d", workers, m.NumDocs())
		}
		assertSameUPM(t, "fan-out", want, m)
	}
	legacy := TrainUPM(c, UPMConfig{K: 3, Iterations: 5, Seed: 1, HyperRounds: -1, Workers: 7})
	if legacy.cfg.Workers != 7 {
		t.Fatalf("stored Workers = %d, want 7", legacy.cfg.Workers)
	}
	legacy.cfg.Workers = want.cfg.Workers
	assertSameUPM(t, "Workers: 7", want, legacy)
}
