package graph

import (
	"fmt"

	"stsk/internal/sparse"
)

// Partition maps fine vertices to coarse super-vertices (the "super-rows"
// of CSR-k, paper §3.1).
type Partition struct {
	Membership []int // fine vertex -> part id in [0, NumParts)
	NumParts   int
}

// PartSizes returns the number of fine vertices in each part.
func (p *Partition) PartSizes() []int {
	sizes := make([]int, p.NumParts)
	for _, part := range p.Membership {
		sizes[part]++
	}
	return sizes
}

// Validate checks that every vertex is assigned a part in range and that
// no part is empty.
func (p *Partition) Validate() error {
	seen := make([]bool, p.NumParts)
	for v, part := range p.Membership {
		if part < 0 || part >= p.NumParts {
			return fmt.Errorf("graph: vertex %d in part %d, out of range [0,%d)", v, part, p.NumParts)
		}
		seen[part] = true
	}
	for part, ok := range seen {
		if !ok {
			return fmt.Errorf("graph: part %d is empty", part)
		}
	}
	return nil
}

// CoarsenContiguous groups consecutively numbered rows of a (band-reduced,
// typically RCM-ordered) matrix into super-rows of approximately equal
// work, measured in nonzeros. This is the paper's route to super-rows for
// band-reducing orderings (§3.1): grouping continuous rows both preserves
// spatial locality and balances the per-task operation count, and the
// resulting parts are contiguous index ranges as CSR-k requires.
//
// rowsPerSuper bounds the number of rows agglomerated into one super-row;
// the nonzero budget per super-row is ceil(nnz/n)·rowsPerSuper, so dense
// rows close a super-row early.
func CoarsenContiguous(m *sparse.CSR, rowsPerSuper int) *Partition {
	if rowsPerSuper < 1 {
		rowsPerSuper = 1
	}
	meanRow := (m.NNZ() + m.N - 1) / maxInt(m.N, 1)
	budget := meanRow * rowsPerSuper
	p := &Partition{Membership: make([]int, m.N)}
	cur, rows, nnz := 0, 0, 0
	for i := 0; i < m.N; i++ {
		rowNNZ := m.RowPtr[i+1] - m.RowPtr[i]
		if rows > 0 && (rows >= rowsPerSuper || nnz+rowNNZ > budget) {
			cur++
			rows, nnz = 0, 0
		}
		p.Membership[i] = cur
		rows++
		nnz += rowNNZ
	}
	if m.N > 0 {
		p.NumParts = cur + 1
	}
	return p
}

// CoarseGraph builds the quotient graph of g under the partition: one
// vertex per part, an edge between distinct parts that contain adjacent
// fine vertices. This is G2 (and recursively G3, ...) of the paper.
func CoarseGraph(g *Graph, p *Partition) *Graph {
	adjSets := make([][]int, p.NumParts)
	stamp := make([]int, p.NumParts)
	for i := range stamp {
		stamp[i] = -1
	}
	for v := 0; v < g.N; v++ {
		pv := p.Membership[v]
		for _, u := range g.Neighbors(v) {
			pu := p.Membership[u]
			if pu == pv {
				continue
			}
			// Dedup within this (pv, pu) by stamping per source part pass.
			adjSets[pv] = append(adjSets[pv], pu)
		}
	}
	coarse := &Graph{N: p.NumParts, Ptr: make([]int, p.NumParts+1)}
	for part := 0; part < p.NumParts; part++ {
		lst := adjSets[part]
		lst = dedupSorted(lst)
		adjSets[part] = lst
		coarse.Ptr[part+1] = coarse.Ptr[part] + len(lst)
	}
	coarse.Adj = make([]int, coarse.Ptr[p.NumParts])
	for part := 0; part < p.NumParts; part++ {
		copy(coarse.Adj[coarse.Ptr[part]:], adjSets[part])
	}
	return coarse
}

func dedupSorted(a []int) []int {
	if len(a) == 0 {
		return a
	}
	insertionSort(a)
	out := a[:1]
	for _, x := range a[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

func insertionSort(a []int) {
	// Neighbour lists per part are short; insertion sort avoids the
	// sort.Ints interface overhead in this hot coarsening path.
	if len(a) > 64 {
		quickSortInts(a)
		return
	}
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && a[j] > x {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}

func quickSortInts(a []int) {
	for len(a) > 64 {
		pivot := a[len(a)/2]
		lo, hi := 0, len(a)-1
		for lo <= hi {
			for a[lo] < pivot {
				lo++
			}
			for a[hi] > pivot {
				hi--
			}
			if lo <= hi {
				a[lo], a[hi] = a[hi], a[lo]
				lo++
				hi--
			}
		}
		if hi < len(a)-lo {
			quickSortInts(a[:hi+1])
			a = a[lo:]
		} else {
			quickSortInts(a[lo:])
			a = a[:hi+1]
		}
	}
	insertionSortSmall(a)
}

func insertionSortSmall(a []int) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && a[j] > x {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
