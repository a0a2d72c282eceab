package topicmodel

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/arena"
)

// UPMState is the flat, offset-addressed image of a trained UPM's
// serving state — the "concise summary of each user's preference" the
// paper stores offline (Section V-A), laid out so every array can alias
// a snapshot arena directly: dense hyperparameters as row-major slabs,
// the sparse per-(document, topic) word/URL counts as CSR over D*K
// rows, and the user-ID index as a flat arena string table.
//
// All slices are plain numeric arrays: a UPMState can be written to or
// read from a wire section with zero per-element decoding.
type UPMState struct {
	Cfg     UPMConfig
	V, U, D int

	Alpha      []float64 // K
	BetaPrior  []float64 // K*V, row-major: beta[k*V+w]
	DeltaPrior []float64 // K*U, row-major: delta[k*U+u]
	BetaSum    []float64 // K
	DeltaSum   []float64 // K
	Tau        []float64 // 2K: [a_0 b_0 a_1 b_1 ...]

	Ndk     []float64 // D*K session counts C_dk
	NdkSum  []float64 // D
	NkwdSum []float64 // D*K
	NkudSum []float64 // D*K

	// Sparse counts: CSR over rows r = d*K + k, column ids sorted
	// ascending within each row.
	NkwdPtr []int64 // D*K+1
	NkwdIdx []int64 // word ids
	NkwdVal []float64
	NkudPtr []int64 // D*K+1
	NkudIdx []int64 // URL ids
	NkudVal []float64

	// User-ID index (doc d -> userID) as a flat arena string table.
	DocOffsets []uint64
	DocBlob    []byte
	DocTable   []uint32
}

// upmFlat is the arena-backed serving form of a UPM: every array may
// alias a read-only (possibly mmap'd) snapshot buffer, so nothing here
// is ever written. Mutation paths (Clone, FoldIn) thaw into the
// map-backed form first.
type upmFlat struct {
	k, v, u, d int

	alpha, betaPrior, deltaPrior, betaSum, deltaSum []float64
	tau                                             []float64
	ndk, ndkSum, nkwdSum, nkudSum                   []float64

	nkwdPtr, nkwdIdx []int64
	nkwdVal          []float64
	nkudPtr, nkudIdx []int64
	nkudVal          []float64

	docs *arena.Strings
}

// csrAt returns the count stored at column j of CSR row r (0 when
// absent). Column ids are sorted, so this is a binary search — the flat
// replacement for the map lookup `nkwd[d][k][w]`.
func csrAt(ptr, idx []int64, val []float64, r, j int) float64 {
	lo, hi := ptr[r], ptr[r+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if idx[mid] < int64(j) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < ptr[r+1] && idx[lo] == int64(j) {
		return val[lo]
	}
	return 0
}

// State flattens the model's serving state into a UPMState. Works on
// either backing; for an already-flat model the returned slices alias
// the model's (read-only) arrays.
func (m *UPM) State() *UPMState {
	if f := m.flat; f != nil {
		return &UPMState{
			Cfg: m.cfg, V: f.v, U: f.u, D: f.d,
			Alpha: f.alpha, BetaPrior: f.betaPrior, DeltaPrior: f.deltaPrior,
			BetaSum: f.betaSum, DeltaSum: f.deltaSum, Tau: f.tau,
			Ndk: f.ndk, NdkSum: f.ndkSum, NkwdSum: f.nkwdSum, NkudSum: f.nkudSum,
			NkwdPtr: f.nkwdPtr, NkwdIdx: f.nkwdIdx, NkwdVal: f.nkwdVal,
			NkudPtr: f.nkudPtr, NkudIdx: f.nkudIdx, NkudVal: f.nkudVal,
			DocOffsets: f.docs.Offsets(), DocBlob: f.docs.Blob(), DocTable: f.docs.Table(),
		}
	}
	k, d := m.cfg.K, len(m.ndk)
	st := &UPMState{
		Cfg: m.cfg, V: m.v, U: m.u, D: d,
		Alpha:      append([]float64(nil), m.alpha...),
		BetaSum:    append([]float64(nil), m.betaSum...),
		DeltaSum:   append([]float64(nil), m.deltaSum...),
		BetaPrior:  make([]float64, k*m.v),
		DeltaPrior: make([]float64, k*m.u),
		Tau:        make([]float64, 2*k),
		Ndk:        make([]float64, d*k),
		NdkSum:     append([]float64(nil), m.ndkSum...),
		NkwdSum:    make([]float64, d*k),
		NkudSum:    make([]float64, d*k),
	}
	for kk := 0; kk < k; kk++ {
		copy(st.BetaPrior[kk*m.v:], m.betaPrior[kk])
		copy(st.DeltaPrior[kk*m.u:], m.deltaPrior[kk])
		st.Tau[2*kk], st.Tau[2*kk+1] = m.tau[kk][0], m.tau[kk][1]
	}
	for dd := 0; dd < d; dd++ {
		copy(st.Ndk[dd*k:], m.ndk[dd])
		copy(st.NkwdSum[dd*k:], m.nkwdSum[dd])
		copy(st.NkudSum[dd*k:], m.nkudSum[dd])
	}
	st.NkwdPtr, st.NkwdIdx, st.NkwdVal = flattenCounts(m.nkwd, k)
	st.NkudPtr, st.NkudIdx, st.NkudVal = flattenCounts(m.nkud, k)

	names := make([]string, d)
	for id, dd := range m.docID {
		if dd >= 0 && dd < d {
			names[dd] = id
		}
	}
	st.DocOffsets, st.DocBlob, st.DocTable = arena.BuildStrings(names)
	return st
}

// flattenCounts converts the per-(d, k) sparse count maps into one CSR
// with rows r = d*K + k and sorted column ids.
func flattenCounts(counts [][]map[int]float64, k int) (ptr, idx []int64, val []float64) {
	rows := len(counts) * k
	ptr = make([]int64, rows+1)
	nnz := 0
	for _, doc := range counts {
		for _, mm := range doc {
			nnz += len(mm)
		}
	}
	idx = make([]int64, 0, nnz)
	val = make([]float64, 0, nnz)
	cols := make([]int, 0, 64)
	r := 0
	for _, doc := range counts {
		for kk := 0; kk < k; kk++ {
			mm := doc[kk]
			cols = cols[:0]
			for j := range mm {
				cols = append(cols, j)
			}
			sort.Ints(cols)
			for _, j := range cols {
				idx = append(idx, int64(j))
				val = append(val, mm[j])
			}
			r++
			ptr[r] = int64(len(idx))
		}
	}
	return ptr, idx, val
}

// UPMFromState validates a flat state image and wraps it as an
// arena-backed UPM. Every structural invariant a hostile buffer could
// violate is checked here — array lengths, CSR monotonicity and
// bounds, doc-table shape — so the serving accessors can index without
// panicking. Values (probabilities, counts) are not sanity-checked;
// corruption there is caught by the wire format's checksums.
func UPMFromState(st *UPMState) (*UPM, error) {
	k := st.Cfg.K
	if k <= 0 || st.V < 0 || st.U < 0 || st.D < 0 {
		return nil, fmt.Errorf("topicmodel: flat UPM: bad dims K=%d V=%d U=%d D=%d", k, st.V, st.U, st.D)
	}
	const maxInt = int(^uint(0) >> 1)
	if st.V > 0 && k > maxInt/st.V || st.U > 0 && k > maxInt/st.U || st.D > 0 && k > maxInt/st.D {
		return nil, fmt.Errorf("topicmodel: flat UPM: dimension overflow K=%d V=%d U=%d D=%d", k, st.V, st.U, st.D)
	}
	dk := st.D * k
	for _, c := range []struct {
		name string
		got  int
		want int
	}{
		{"Alpha", len(st.Alpha), k},
		{"BetaPrior", len(st.BetaPrior), k * st.V},
		{"DeltaPrior", len(st.DeltaPrior), k * st.U},
		{"BetaSum", len(st.BetaSum), k},
		{"DeltaSum", len(st.DeltaSum), k},
		{"Tau", len(st.Tau), 2 * k},
		{"Ndk", len(st.Ndk), dk},
		{"NdkSum", len(st.NdkSum), st.D},
		{"NkwdSum", len(st.NkwdSum), dk},
		{"NkudSum", len(st.NkudSum), dk},
	} {
		if c.got != c.want {
			return nil, fmt.Errorf("topicmodel: flat UPM: %s has %d elements, want %d", c.name, c.got, c.want)
		}
	}
	if err := checkCSR("word", st.NkwdPtr, st.NkwdIdx, st.NkwdVal, dk, st.V); err != nil {
		return nil, err
	}
	if err := checkCSR("url", st.NkudPtr, st.NkudIdx, st.NkudVal, dk, st.U); err != nil {
		return nil, err
	}
	docs, err := arena.NewStrings(st.DocOffsets, st.DocBlob, st.DocTable)
	if err != nil {
		return nil, fmt.Errorf("topicmodel: flat UPM doc table: %w", err)
	}
	if docs.Len() != st.D {
		return nil, fmt.Errorf("topicmodel: flat UPM: doc table has %d names, want %d", docs.Len(), st.D)
	}
	return &UPM{
		cfg: st.Cfg, v: st.V, u: st.U,
		flat: &upmFlat{
			k: k, v: st.V, u: st.U, d: st.D,
			alpha: st.Alpha, betaPrior: st.BetaPrior, deltaPrior: st.DeltaPrior,
			betaSum: st.BetaSum, deltaSum: st.DeltaSum, tau: st.Tau,
			ndk: st.Ndk, ndkSum: st.NdkSum, nkwdSum: st.NkwdSum, nkudSum: st.NkudSum,
			nkwdPtr: st.NkwdPtr, nkwdIdx: st.NkwdIdx, nkwdVal: st.NkwdVal,
			nkudPtr: st.NkudPtr, nkudIdx: st.NkudIdx, nkudVal: st.NkudVal,
			docs: docs,
		},
	}, nil
}

func checkCSR(what string, ptr, idx []int64, val []float64, rows, cols int) error {
	if len(ptr) != rows+1 {
		return fmt.Errorf("topicmodel: flat UPM %s counts: %d row pointers, want %d", what, len(ptr), rows+1)
	}
	if ptr[0] != 0 {
		return fmt.Errorf("topicmodel: flat UPM %s counts: ptr[0] = %d", what, ptr[0])
	}
	for r := 0; r < rows; r++ {
		if ptr[r+1] < ptr[r] {
			return fmt.Errorf("topicmodel: flat UPM %s counts: row pointers not monotone at row %d", what, r)
		}
	}
	nnz := ptr[rows]
	if int64(len(idx)) != nnz || int64(len(val)) != nnz {
		return fmt.Errorf("topicmodel: flat UPM %s counts: %d ids / %d values, want %d", what, len(idx), len(val), nnz)
	}
	for r := 0; r < rows; r++ {
		prev := int64(-1)
		for p := ptr[r]; p < ptr[r+1]; p++ {
			j := idx[p]
			if j <= prev || j >= int64(cols) {
				return fmt.Errorf("topicmodel: flat UPM %s counts: bad column %d at row %d (cols=%d)", what, j, r, cols)
			}
			prev = j
		}
	}
	return nil
}

// thaw materializes the mutable map-backed form from the flat arrays,
// copying every value out of the (possibly mmap'd, read-only) arena.
// No-op on an already-mutable model.
func (m *UPM) thaw() {
	f := m.flat
	if f == nil {
		return
	}
	k, d := f.k, f.d
	m.alpha = append([]float64(nil), f.alpha...)
	m.betaSum = append([]float64(nil), f.betaSum...)
	m.deltaSum = append([]float64(nil), f.deltaSum...)
	m.betaPrior = make([][]float64, k)
	m.deltaPrior = make([][]float64, k)
	m.tau = make([][2]float64, k)
	for kk := 0; kk < k; kk++ {
		m.betaPrior[kk] = append([]float64(nil), f.betaPrior[kk*f.v:(kk+1)*f.v]...)
		m.deltaPrior[kk] = append([]float64(nil), f.deltaPrior[kk*f.u:(kk+1)*f.u]...)
		m.tau[kk] = [2]float64{f.tau[2*kk], f.tau[2*kk+1]}
	}
	m.ndk = make([][]float64, d)
	m.ndkSum = append([]float64(nil), f.ndkSum...)
	m.nkwd = make([][]map[int]float64, d)
	m.nkwdSum = make([][]float64, d)
	m.nkud = make([][]map[int]float64, d)
	m.nkudSum = make([][]float64, d)
	for dd := 0; dd < d; dd++ {
		m.ndk[dd] = append([]float64(nil), f.ndk[dd*k:(dd+1)*k]...)
		m.nkwdSum[dd] = append([]float64(nil), f.nkwdSum[dd*k:(dd+1)*k]...)
		m.nkudSum[dd] = append([]float64(nil), f.nkudSum[dd*k:(dd+1)*k]...)
		m.nkwd[dd] = make([]map[int]float64, k)
		m.nkud[dd] = make([]map[int]float64, k)
		for kk := 0; kk < k; kk++ {
			r := dd*k + kk
			m.nkwd[dd][kk] = thawRow(f.nkwdPtr, f.nkwdIdx, f.nkwdVal, r)
			m.nkud[dd][kk] = thawRow(f.nkudPtr, f.nkudIdx, f.nkudVal, r)
		}
	}
	m.docID = make(map[string]int, d)
	for dd := 0; dd < d; dd++ {
		// Copy the name: thawed models must not alias arena memory.
		name := f.docs.Name(dd)
		m.docID[string(append([]byte(nil), name...))] = dd
	}
	m.flat = nil
}

func thawRow(ptr, idx []int64, val []float64, r int) map[int]float64 {
	mm := make(map[int]float64, ptr[r+1]-ptr[r])
	for p := ptr[r]; p < ptr[r+1]; p++ {
		mm[int(idx[p])] = val[p]
	}
	return mm
}

// Clone returns a model FoldIn can extend or overwrite without
// disturbing the original. Only the per-document tables are copied
// (O(documents)): the learned priors and every document's count state
// are shared, which is safe because a trained model never writes them
// again — FoldIn publishes a fresh state for the document it folds. Cloning an
// arena-backed model thaws the copy into the mutable form (the
// original stays flat); the arena itself is never written.
func (m *UPM) Clone() *UPM {
	out := *m
	if m.flat != nil {
		out.thaw()
		return &out
	}
	out.ndk = slices.Clone(m.ndk)
	out.ndkSum = slices.Clone(m.ndkSum)
	out.nkwd = slices.Clone(m.nkwd)
	out.nkwdSum = slices.Clone(m.nkwdSum)
	out.nkud = slices.Clone(m.nkud)
	out.nkudSum = slices.Clone(m.nkudSum)
	out.docID = maps.Clone(m.docID)
	return &out
}
