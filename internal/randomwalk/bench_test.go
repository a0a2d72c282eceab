package randomwalk

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/sparse"
)

// The synthetic kernel workload: a 2,000-node transition graph at ~12
// nonzeros per row (≈24k nnz, large enough for the parallel path to
// engage) with a small unreachable block and a 3-node target set — the
// shape of one greedy round on a generously-sized compact
// representation.
const benchN, benchDeg, benchL = 2000, 12, 10

func benchFixture() (*sparse.Matrix, []bool, []float64) {
	rng := rand.New(rand.NewSource(23))
	trans := randTransition(rng, benchN, benchDeg, 100)
	inS := make([]bool, benchN)
	for i := 0; i < 3; i++ {
		inS[rng.Intn(benchN-100)] = true
	}
	return trans, inS, DanglingMass(trans)
}

// BenchmarkHittingTimeClosure is the seed kernel: closure callback per
// nonzero, per-call rowSum recomputation, fresh vectors every call.
func BenchmarkHittingTimeClosure(b *testing.B) {
	trans, inS, _ := benchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TruncatedHittingTime(trans, func(i int) bool { return inS[i] }, benchL)
	}
}

// benchmarkFlat runs the flat kernel at a given worker count with the
// early exit disabled — the pure kernel-vs-kernel comparison against
// BenchmarkHittingTimeClosure (identical sweep count).
func benchmarkFlat(b *testing.B, workers int) {
	trans, inS, dangling := benchFixture()
	scratch := &SweepScratch{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TruncatedHittingTimeFlat(trans, inS, HittingTimeOpts{
			Steps: benchL, Workers: workers, Dangling: dangling, Scratch: scratch,
		})
	}
}

func BenchmarkHittingTimeFlat(b *testing.B)         { benchmarkFlat(b, 1) }
func BenchmarkHittingTimeFlatWorkers4(b *testing.B) { benchmarkFlat(b, 4) }
func BenchmarkHittingTimeFlatWorkers8(b *testing.B) { benchmarkFlat(b, 8) }

// BenchmarkHittingTimeSteadyState is the allocation guard (`make
// bench-guard` fails the build if this ever allocates): the flat
// kernel on the sequential path with caller scratch and precomputed
// dangling mass must run the steady-state sweep with 0 allocs/op.
func BenchmarkHittingTimeSteadyState(b *testing.B) {
	trans, inS, dangling := benchFixture()
	scratch := &SweepScratch{}
	opts := HittingTimeOpts{Steps: benchL, Dangling: dangling, Scratch: scratch}
	TruncatedHittingTimeFlat(trans, inS, opts) // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TruncatedHittingTimeFlat(trans, inS, opts)
	}
}

// BenchmarkHittingTimeSeedMap is the kernel exactly as the greedy loop
// originally invoked it: map-based membership through HittingTimeToSet
// on a realistic |S| — the honest "before" for the flat kernel numbers
// above (BenchmarkHittingTimeClosure isolates just the closure cost by
// using a []bool-backed callback).
func BenchmarkHittingTimeSeedMap(b *testing.B) {
	trans, inSb, _ := benchFixture()
	set := map[int]bool{}
	for i, in := range inSb {
		if in {
			set[i] = true
		}
	}
	rng := rand.New(rand.NewSource(5))
	for len(set) < 10 {
		set[rng.Intn(benchN)] = true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HittingTimeToSet(trans, set, benchL)
	}
}

// --- Beyond-L2 fixture ----------------------------------------------
//
// The 2,000-node fixture above fits in L2. This fixture is sized past
// any L2/L3 slice on the fleet: ~524k nodes at ~8.5 nonzeros per row is
// ≈4M nnz — a ~80 MiB sweep working set (colidx + val + rowptr + three
// vectors), with the h-vector gather target alone at 4 MiB. Sweeps
// stream from memory and the gathers miss cache, so this measures the
// memory-bound regime.

const llcN, llcDeg = 1 << 19, 16

var (
	llcOnce     sync.Once
	llcTrans    *sparse.Matrix
	llcInS      []bool
	llcDangling []float64
)

func llcFixture() (*sparse.Matrix, []bool, []float64) {
	llcOnce.Do(func() {
		rng := rand.New(rand.NewSource(29))
		llcTrans = randTransition(rng, llcN, llcDeg, 1000)
		llcInS = make([]bool, llcN)
		for i := 0; i < 5; i++ {
			llcInS[rng.Intn(llcN-1000)] = true
		}
		llcDangling = DanglingMass(llcTrans)
	})
	return llcTrans, llcInS, llcDangling
}

// BenchmarkHittingTimeLLC is the sweep on the beyond-L2 fixture — the
// memory-bound baseline.
func BenchmarkHittingTimeLLC(b *testing.B) {
	trans, inS, dangling := llcFixture()
	view := trans.View()
	nnz := len(view.Val)
	b.SetBytes(int64(benchL * nnz * 16)) // colidx + float64 val per sweep
	scratch := &SweepScratch{}
	opts := HittingTimeOpts{Steps: benchL, Dangling: dangling, Scratch: scratch}
	TruncatedHittingTimeFlat(trans, inS, opts) // warm scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TruncatedHittingTimeFlat(trans, inS, opts)
	}
}
