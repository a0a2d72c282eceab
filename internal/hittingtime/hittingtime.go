// Package hittingtime implements the paper's cross-bipartite hitting
// time (Section IV-C, Eqs. 16–17, Algorithm 1): a random walker on the
// compact multi-bipartite representation that, at each step, either
// moves within its current bipartite or teleports to another bipartite
// before moving. Candidates are selected greedily by LARGEST truncated
// hitting time to the already-selected set — queries far (in walk
// distance) from everything chosen so far cover new facets, which is
// what produces diversity.
package hittingtime

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/bipartite"
	"repro/internal/obs"
	"repro/internal/randomwalk"
	"repro/internal/sparse"
)

// Config tunes candidate selection.
type Config struct {
	// Iterations is the paper's l: the truncation depth of the hitting
	// time recursion (default 10).
	Iterations int
	// Tolerance is the early-convergence threshold of each hitting-time
	// sweep: a round stops before l steps once no node's hitting time
	// moved by more than Tolerance in the last step (the recursion has
	// reached its fixed point to working precision, so further sweeps
	// cannot change the greedy argmax by more than Tolerance). Zero
	// selects the default 1e-9; negative runs the paper's fixed-l
	// recursion exactly.
	Tolerance float64
	// CrossView holds the teleport distribution over the three
	// bipartites. The paper uses equal weights absent prior knowledge;
	// the zero value means uniform 1/3 each.
	CrossView [bipartite.NumViews]float64
	// Workers partitions every hitting-time sweep across this many
	// goroutines (≤ 1 sequential). Selections are bit-identical for any
	// worker count — see randomwalk.TruncatedHittingTimeFlat.
	Workers int
	// Precision is read by nothing: every sweep runs in float64.
	//
	// Deprecated: leave unset.
	Precision sparse.Precision
}

// defaultTolerance is the Config.Tolerance zero-value default: far
// below any hitting-time gap the greedy argmax discriminates on, so
// early-exited selections match fixed-l selections in practice, while
// saturated recursions (everything reachable, short mixing time) stop
// paying for sweeps that no longer move anything.
const defaultTolerance = 1e-9

func (c Config) withDefaults() Config {
	if c.Iterations <= 0 {
		c.Iterations = 10
	}
	if c.Tolerance == 0 {
		c.Tolerance = defaultTolerance
	}
	sum := 0.0
	for _, w := range c.CrossView {
		sum += w
	}
	if sum == 0 {
		for v := range c.CrossView {
			c.CrossView[v] = 1.0 / bipartite.NumViews
		}
	} else {
		for v := range c.CrossView {
			c.CrossView[v] /= sum
		}
	}
	return c
}

// Walker is the prepared cross-bipartite walk on one compact
// representation: the effective query→query transition after averaging
// the per-view intra-bipartite transitions P^X under the cross-view
// teleport distribution N (Eq. 16 with uniform N), plus the
// walk-invariant state the sweep kernel needs — per-row sums and
// dangling mass are a pure function of the immutable transition, so
// they are computed once here instead of once per greedy round.
type Walker struct {
	cfg      Config
	trans    *sparse.Matrix
	rowSum   []float64
	dangling []float64
}

// NewWalker builds the effective transition for the compact
// representation. Queries lacking edges in some view have their
// cross-view mass renormalized over the views where they do have edges,
// so no probability leaks.
//
// The construction is fused: Eq. 16's averaged transition
//
//	T[i,j] = Σ_X (N^X/avail_i) Σ_o W^X[i,o]·W^X[j,o] / (rowsum_i·colsum_o)
//
// is assembled in ONE Gustavson pass per row, scattering every view's
// normalized contribution into a shared dense accumulator. The previous
// pipeline materialized eight intermediate matrices per request (two
// row-normalized copies and one SpGEMM per view, then scale and merge
// passes) — on the per-request serving path the intermediates cost more
// than the arithmetic. Since compact columns are bounded by the budget,
// rows are emitted by scanning the accumulator (ascending order for
// free, no per-row sort).
func NewWalker(c *bipartite.Compact, cfg Config) *Walker {
	cfg = cfg.withDefaults()
	n := c.Size()
	// Per-view normalization state: the raw bipartite W, its transpose
	// (structure only — normalization happens on the fly), and the
	// row/column sums that QueryTransition's RowNormalized copies used
	// to bake into matrix values.
	type viewState struct {
		weight         float64
		w, wt          sparse.CSRView
		rowSum, colSum []float64
	}
	views := make([]viewState, 0, bipartite.NumViews)
	avail := make([]float64, n)
	for v := 0; v < bipartite.NumViews; v++ {
		wm := c.W[v]
		for i := 0; i < n; i++ {
			if wm.RowNNZ(i) > 0 {
				avail[i] += cfg.CrossView[v]
			}
		}
		if cfg.CrossView[v] == 0 {
			continue // contributes neither mass nor structure
		}
		wt := wm.Transpose()
		m := wm.Cols()
		vs := viewState{
			weight: cfg.CrossView[v],
			w:      wm.View(),
			wt:     wt.View(),
			rowSum: make([]float64, n),
			colSum: make([]float64, m),
		}
		for i := 0; i < n; i++ {
			vs.rowSum[i] = wm.RowSum(i)
		}
		for o := 0; o < m; o++ {
			vs.colSum[o] = wt.RowSum(o)
		}
		views = append(views, vs)
	}

	// Rows come out in ascending order and the accumulator scan emits
	// columns sorted, so the CSR arrays are assembled directly —
	// profiling showed the Builder's triplet buffering and sort costing
	// more than the scatter arithmetic itself. The scatter's flop count
	// bounds the output nnz, so one pass over the structure sizes the
	// arrays up front and append never reallocates.
	bound := 0
	for _, vs := range views {
		for _, o := range vs.w.ColIdx {
			bound += vs.wt.RowPtr[o+1] - vs.wt.RowPtr[o]
		}
	}
	if max := n * n; bound > max {
		bound = max
	}
	rowPtr := make([]int, n+1)
	colIdx := make([]int, 0, bound)
	vals := make([]float64, 0, bound)
	acc := make([]float64, n)
	rowSum := make([]float64, n)
	dangling := make([]float64, n)
	for i := 0; i < n; i++ {
		if avail[i] != 0 {
			for _, vs := range views {
				if vs.rowSum[i] == 0 {
					continue
				}
				teleport := vs.weight / avail[i]
				for p := vs.w.RowPtr[i]; p < vs.w.RowPtr[i+1]; p++ {
					o := vs.w.ColIdx[p]
					if vs.colSum[o] == 0 {
						continue
					}
					a := teleport * vs.w.Val[p] / vs.rowSum[i] / vs.colSum[o]
					wtCol := vs.wt.ColIdx[vs.wt.RowPtr[o]:vs.wt.RowPtr[o+1]]
					wtVal := vs.wt.Val[vs.wt.RowPtr[o]:vs.wt.RowPtr[o+1]]
					// Pairwise unroll: each acc update stays a sequential
					// load-add-store, so results are bit-identical to the
					// rolled loop; only the loop overhead halves.
					q := 0
					for ; q+2 <= len(wtVal); q += 2 {
						acc[wtCol[q]] += a * wtVal[q]
						acc[wtCol[q+1]] += a * wtVal[q+1]
					}
					if q < len(wtVal) {
						acc[wtCol[q]] += a * wtVal[q]
					}
				}
			}
			// Emit the row and fold in the walk-invariant per-row state:
			// summing in emit order matches Matrix.RowSum's loop exactly,
			// so rowSum and dangling are bit-identical to the previous
			// post-hoc RowSum/DanglingMass passes.
			rs := 0.0
			for j := 0; j < n; j++ {
				if acc[j] != 0 {
					colIdx = append(colIdx, j)
					vals = append(vals, acc[j])
					rs += acc[j]
					acc[j] = 0
				}
			}
			rowSum[i] = rs
		}
		if d := 1 - rowSum[i]; d > 1e-12 {
			dangling[i] = d
		}
		rowPtr[i+1] = len(colIdx)
	}
	trans := sparse.FromCSR(n, n, rowPtr, colIdx, vals)
	return &Walker{cfg: cfg, trans: trans, rowSum: rowSum, dangling: dangling}
}

// walkerKey identifies one prepared walker in a compact's derived-value
// memo: the walker is a pure function of the compact and the (defaulted)
// selector config.
type walkerKey struct {
	cfg Config
}

// WalkerFor returns the compact's memoized walker for cfg, building it
// on first use. A Walker is immutable after construction (per-selection
// scratch lives in a package pool, not on the walker), so concurrent
// requests on a cached compact share one instance — and the fused
// Eq. 16 construction in NewWalker runs once per compact instead of
// once per request.
func WalkerFor(c *bipartite.Compact, cfg Config) *Walker {
	cfg = cfg.withDefaults()
	return c.Derived(walkerKey{cfg: cfg}, func() any {
		return NewWalker(c, cfg)
	}).(*Walker)
}

// Transition exposes the effective transition matrix (row-stochastic on
// non-isolated queries).
func (w *Walker) Transition() *sparse.Matrix { return w.trans }

// RowSums exposes the precomputed per-row transition mass (read-only).
func (w *Walker) RowSums() []float64 { return w.rowSum }

// selectScratch is the per-request working set of one greedy selection:
// the sweep's two n-vectors plus the membership and exclusion masks.
// Walkers are built per request (over each request's compact
// representation), so the pool is package-level — scratch outlives any
// one Walker and is recycled across concurrent requests. Sized for the
// compact budget (a few hundred queries), so a pooled entry is a few KB.
type selectScratch struct {
	sweep  randomwalk.SweepScratch
	inS    []bool
	banned []bool
}

var selectPool = sync.Pool{New: func() any { return new(selectScratch) }}

// reset readies the scratch for an n-query selection with empty masks.
func (sc *selectScratch) reset(n int) {
	sc.sweep.Resize(n)
	if cap(sc.inS) < n {
		sc.inS = make([]bool, n)
		sc.banned = make([]bool, n)
	}
	sc.inS = sc.inS[:n]
	sc.banned = sc.banned[:n]
	for i := range sc.inS {
		sc.inS[i] = false
		sc.banned[i] = false
	}
}

// HittingTime returns the truncated expected hitting time of every
// query to the set S (compact-local indices). The returned slice is
// freshly allocated (it does not alias pooled scratch).
func (w *Walker) HittingTime(s map[int]bool) []float64 {
	n := w.trans.Rows()
	sc := selectPool.Get().(*selectScratch)
	defer selectPool.Put(sc)
	sc.reset(n)
	for i, in := range s {
		if in && i >= 0 && i < n {
			sc.inS[i] = true
		}
	}
	h, _ := w.hit(sc)
	return append([]float64(nil), h...)
}

// effectiveWorkers clamps the configured sweep parallelism to the
// runtime's usable CPUs: goroutines beyond GOMAXPROCS only add
// scheduling overhead, and the kernel's determinism contract makes the
// results bit-identical at any count, so the clamp is unobservable in
// the output. (The randomwalk kernel itself honors explicit counts —
// its parity tests force oversubscribed partitions on purpose.)
func (w *Walker) effectiveWorkers() int {
	if max := runtime.GOMAXPROCS(0); w.cfg.Workers > max {
		return max
	}
	return w.cfg.Workers
}

// hit runs one truncated hitting-time sweep with the walker's
// precomputed dangling mass and the scratch's membership mask,
// returning the (scratch-aliased) hitting times and the sweeps run.
func (w *Walker) hit(sc *selectScratch) ([]float64, int) {
	return randomwalk.TruncatedHittingTimeFlat(w.trans, sc.inS, randomwalk.HittingTimeOpts{
		Steps:    w.cfg.Iterations,
		Tol:      w.cfg.Tolerance,
		Workers:  w.effectiveWorkers(),
		Dangling: w.dangling,
		Scratch:  &sc.sweep,
	})
}

// SelectDiverse runs Algorithm 1's greedy loop: starting from the
// already-chosen first candidate, repeatedly add the query with the
// largest truncated hitting time to the selected set until k candidates
// are chosen (or no eligible query remains). excluded lists
// compact-local indices that may never be suggested (the input query
// and its search context). pool, when non-nil, restricts candidacy to
// the given compact-local indices — PQS-DA passes the top queries by
// regularization relevance F*, so diversification spreads over facets
// WITHOUT drifting into barely-related queries (the relevance gate that
// keeps Fig. 3(c,d)'s relevance high). The returned slice is in
// discovery order — the ranked candidate list of the diversification
// component.
func (w *Walker) SelectDiverse(first int, k int, excluded []int, pool []int) []int {
	sel, _ := w.SelectDiverseCtx(context.Background(), first, k, excluded, pool)
	return sel
}

// SelectDiverseCtx is SelectDiverse with request-scoped cancellation:
// the context is checked before every greedy round (each round is one
// truncated hitting-time computation over the compact graph). On
// cancellation it returns the candidates selected so far together with
// ctx.Err(), so a serving deadline yields a usable partial list.
//
// The greedy loop is observable: with an obs trace on the context it
// records a "greedy_select" span (rounds, selected, executed walk
// steps, workers, pool size), and with a metric sink it feeds the
// hitting-round and walk-step depth histograms. Walk steps are the
// sweeps actually executed — with the early-convergence exit enabled
// this is at most, not exactly, rounds × l. Both no-op otherwise.
func (w *Walker) SelectDiverseCtx(ctx context.Context, first int, k int, excluded []int, pool []int) (selected []int, err error) {
	n := w.trans.Rows()
	if k <= 0 || first < 0 || first >= n {
		return nil, nil
	}
	sp := obs.StartSpan(ctx, "greedy_select")
	rounds, walkSteps := 0, 0
	defer func() {
		obs.Observe(ctx, obs.MetricHittingRounds, float64(rounds))
		obs.Observe(ctx, obs.MetricHittingWalkSteps, float64(walkSteps))
		if sp != nil {
			sp.SetAttr("rounds", rounds)
			sp.SetAttr("selected", len(selected))
			sp.SetAttr("walkDepth", w.cfg.Iterations)
			sp.SetAttr("walkSteps", walkSteps)
			sp.SetAttr("workers", w.cfg.Workers)
			sp.SetAttr("poolSize", len(pool))
			sp.SetAttr("cancelled", err != nil)
			sp.End()
		}
	}()
	sc := selectPool.Get().(*selectScratch)
	defer selectPool.Put(sc)
	sc.reset(n)
	for _, e := range excluded {
		if e >= 0 && e < n {
			sc.banned[e] = true
		}
	}
	candidates := make([]int, 0, n)
	if pool != nil {
		seen := make(map[int]bool, len(pool))
		for _, p := range pool {
			if p >= 0 && p < n && !seen[p] {
				seen[p] = true
				candidates = append(candidates, p)
			}
		}
		if !seen[first] {
			candidates = append(candidates, first)
		}
	} else {
		for i := 0; i < n; i++ {
			candidates = append(candidates, i)
		}
	}
	selected = []int{first}
	sc.inS[first] = true
	for len(selected) < k {
		if err := ctx.Err(); err != nil {
			return selected, err
		}
		h, iters := w.hit(sc)
		rounds++
		walkSteps += iters
		best, bestH := -1, -1.0
		for _, i := range candidates {
			if sc.inS[i] || sc.banned[i] {
				continue
			}
			if h[i] > bestH { // ties resolve to the first candidate listed
				best, bestH = i, h[i]
			}
		}
		if best < 0 {
			break
		}
		selected = append(selected, best)
		sc.inS[best] = true
	}
	return selected, nil
}
