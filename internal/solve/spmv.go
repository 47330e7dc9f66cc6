package solve

import (
	"sort"

	"stsk/internal/csrk"
	"stsk/internal/sparse"
)

// minChunkEntries is the fewest stored entries a chunk of a product
// holds, so a matrix under two chunks' worth is one chunk, swept by its
// caller with no helper offered. On 2 vCPUs (grid3d), one worker and two
// were within noise of each other from 11k to 27k entries (n = 1,728 to
// 4,096), and two were 1.6× faster at 133k (n = 19,683) and 1.7× at 650k
// (n = 97,336).
const minChunkEntries = 8192

// SpMV is the symbolic side of the products y = A·x over one matrix
// pattern: the rows carved into chunks of about equal stored-entry count,
// and the most goroutines one product is swept by. It is built once per
// pattern; each product takes the matrix whose values it multiplies by,
// which must have that pattern.
//
// A product is a call on the helper set like a solve: rows need no
// ordering among themselves, so its chunks are a DAG with no edges, and
// the caller and up to workers−1 idle helpers claim them in order
// (spmvRun). Each row is summed by one participant in entry order, so y
// is bitwise sparse.CSR.MatVec's over the same entries at any worker
// count.
type SpMV struct {
	chunks  csrk.TaskDAG // chunk t is rows [RowPtr[t], RowPtr[t+1]); no edges
	workers int
	runs    pool[spmvRun]
}

// NewSpMV carves the rows of a's pattern into nnz-balanced chunks of at
// least minChunkEntries stored entries each and grows the process-wide
// helper set, if need be, so a product can have a full team of workers
// (the caller and workers−1 helpers).
func NewSpMV(a *sparse.CSR32, workers int) *SpMV {
	nnz := int64(len(a.Col))
	nc := max(1, nnz/minChunkEntries)
	bounds := make([]int32, 1, nc+1)
	for c := int64(1); c < nc; c++ {
		target := int32(nnz * c / nc)
		r := int32(sort.Search(a.N, func(i int) bool { return a.RowPtr[i] >= target }))
		if r > bounds[len(bounds)-1] {
			bounds = append(bounds, r)
		}
	}
	bounds = append(bounds, int32(a.N))
	m := &SpMV{workers: workers}
	independent(&m.chunks, bounds)
	m.runs.fresh = func() *spmvRun { r := new(spmvRun); r.bind(&m.chunks, r); return r }
	helpers.grow(workers)
	return m
}

// Apply computes y = a·x, a on the pattern m was built for. y and x must
// have length a.N and must not alias; callers validate the lengths. A
// panic in a participant's share is contained and returned as an error
// wrapping panicsafe.ErrInternal, with y then incomplete.
//
//stsk:noalloc
func (m *SpMV) Apply(a *sparse.CSR32, y, x []float64) error {
	r := m.runs.Get()
	r.a, r.y, r.x = a, y, x
	err := cooperate(nil, &r.graphRun, min(m.workers, m.chunks.NumTasks())-1)
	r.a, r.y, r.x = nil, nil, nil
	m.runs.Put(r)
	return err
}

// spmvRun is a product: task t computes the rows of chunk t.
type spmvRun struct {
	graphRun
	a    *sparse.CSR32
	y, x []float64
}

// rows computes rows [lo, hi) of y = a·x, each row's products summed in
// entry order — sparse.CSR.MatVec's order.
//
//stsk:noalloc
func (r *spmvRun) rows(lo, hi int) {
	a, y, x := r.a, r.y, r.x
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
