package solve

import (
	"sort"
	"sync/atomic"

	"stsk/internal/faultinject"
	"stsk/internal/panicsafe"
	"stsk/internal/sparse"
)

// minChunkEntries is the fewest stored entries a chunk of a product
// holds, so a matrix under two chunks' worth sweeps inline with no
// offer. On 2 vCPUs (grid3d), one worker and two were within noise of
// each other from 11k to 27k entries (n = 1,728 to 4,096), and two were
// 1.6× faster at 133k (n = 19,683) and 1.7× at 650k (n = 97,336).
const minChunkEntries = 8192

// SpMV is the symbolic side of the products y = A·x over one matrix
// pattern: the rows carved into chunks of about equal stored-entry count,
// and the most goroutines one product is swept by. It is built once per
// pattern; each product takes the matrix whose values it multiplies by,
// which must have that pattern.
//
// A product is a call on the helper set like a solve: the caller and up
// to workers−1 idle helpers claim chunks off an atomic cursor. Rows need
// no ordering among themselves, so there is no DAG. Each row is summed
// by one participant in entry order, so y is bitwise sparse.CSR.MatVec's
// over the same entries at any worker count.
type SpMV struct {
	chunks  []int32 // chunk c is rows [chunks[c], chunks[c+1])
	workers int
}

// NewSpMV carves the rows of a's pattern into nnz-balanced chunks of at
// least minChunkEntries stored entries each and grows the process-wide
// helper set, if need be, so a product can have a full team of workers
// (the caller and workers−1 helpers).
func NewSpMV(a *sparse.CSR32, workers int) *SpMV {
	nnz := int64(len(a.Col))
	nc := max(1, nnz/minChunkEntries)
	chunks := make([]int32, 1, nc+1)
	for c := int64(1); c < nc; c++ {
		target := int32(nnz * c / nc)
		r := int32(sort.Search(a.N, func(i int) bool { return a.RowPtr[i] >= target }))
		if r > chunks[len(chunks)-1] {
			chunks = append(chunks, r)
		}
	}
	chunks = append(chunks, int32(a.N))
	helpers.grow(workers)
	return &SpMV{chunks: chunks, workers: workers}
}

// Apply computes y = a·x, a on the pattern m was built for. y and x must
// have length a.N and must not alias; callers validate the lengths. A
// panic in a participant's share is contained and returned as an error
// wrapping panicsafe.ErrInternal, with y then incomplete.
//
//stsk:noalloc
func (m *SpMV) Apply(a *sparse.CSR32, y, x []float64) error {
	r := spmvRuns.Get()
	r.a, r.chunks, r.y, r.x = a, m.chunks, y, x
	r.next.Store(0)
	err := cooperate(nil, job{spmv: r, done: &r.completion}, min(m.workers, len(m.chunks)-1)-1)
	r.a, r.chunks, r.y, r.x = nil, nil, nil, nil
	spmvRuns.Put(r)
	return err
}

// spmvRuns pools the run state of products in flight, process-wide: a
// product belongs to no engine.
var spmvRuns = pool[spmvRun]{fresh: func() *spmvRun { return new(spmvRun) }}

// spmvRun is the shared state of one product: its participants claim
// chunks off next until none is left.
type spmvRun struct {
	a      *sparse.CSR32
	chunks []int32
	y, x   []float64

	next atomic.Int32 // first chunk no participant has claimed
	completion
}

// runShare is every participant's entry into a product and its
// panic-containment boundary. An injected engine.job fault makes this
// participant bow out before claiming anything; its mates sweep the
// chunks it leaves.
func (r *spmvRun) runShare() {
	defer func() {
		if p := recover(); p != nil {
			r.fail(panicsafe.AsError(p))
		}
	}()
	if err := faultinject.Fire(faultinject.EngineJob); err != nil {
		r.fail(err)
		return
	}
	r.work()
}

// work claims and multiplies chunks until the cursor runs past the last.
//
//stsk:noalloc
func (r *spmvRun) work() {
	nc := int32(len(r.chunks) - 1)
	for c := r.next.Add(1) - 1; c < nc; c = r.next.Add(1) - 1 {
		mulRows(r.a, r.y, r.x, int(r.chunks[c]), int(r.chunks[c+1]))
	}
}

// mulRows computes rows [lo, hi) of y = a·x, each row's products summed
// in entry order — sparse.CSR.MatVec's order.
//
//stsk:noalloc
func mulRows(a *sparse.CSR32, y, x []float64, lo, hi int) {
	rp, col, val := a.RowPtr, a.Col, a.Val
	for i := lo; i < hi; i++ {
		cs := col[rp[i]:rp[i+1]]
		vs := val[rp[i]:rp[i+1]]
		vs = vs[:len(cs)]
		s := 0.0
		for k, c := range cs {
			s += vs[k] * x[c]
		}
		y[i] = s
	}
}
