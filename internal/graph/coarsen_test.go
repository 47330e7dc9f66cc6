package graph

import (
	"math/rand"
	"testing"

	"stsk/internal/gen"
	"stsk/internal/sparse"
)

func TestCoarsenContiguousBasic(t *testing.T) {
	m := gen.Grid2D(10, 10)
	p := CoarsenContiguous(m, 4)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Contiguity: membership must be non-decreasing.
	for i := 1; i < len(p.Membership); i++ {
		if p.Membership[i] < p.Membership[i-1] {
			t.Fatalf("membership decreases at %d", i)
		}
		if p.Membership[i] > p.Membership[i-1]+1 {
			t.Fatalf("membership jumps at %d", i)
		}
	}
	// Rows per part bounded.
	for _, s := range p.PartSizes() {
		if s > 4 {
			t.Fatalf("part size %d exceeds rowsPerSuper", s)
		}
		if s < 1 {
			t.Fatal("empty part")
		}
	}
}

func TestCoarsenContiguousNNZBalance(t *testing.T) {
	m := gen.Grid2D(16, 16)
	p := CoarsenContiguous(m, 8)
	budget := ((m.NNZ()+m.N-1)/m.N)*8 + 10
	nnzPerPart := make([]int, p.NumParts)
	for i := 0; i < m.N; i++ {
		nnzPerPart[p.Membership[i]] += m.RowPtr[i+1] - m.RowPtr[i]
	}
	for part, z := range nnzPerPart {
		// A single dense row may exceed the budget, but with a grid every
		// part should respect it.
		if z > budget {
			t.Fatalf("part %d has %d nnz, budget %d", part, z, budget)
		}
	}
}

func TestCoarsenContiguousClamps(t *testing.T) {
	m := gen.Grid2D(4, 4)
	p := CoarsenContiguous(m, 0) // clamped to 1: every row its own part
	if p.NumParts != m.N {
		t.Fatalf("rowsPerSuper=0 should yield singleton parts, got %d parts for %d rows", p.NumParts, m.N)
	}
}

func TestCoarseGraphQuotient(t *testing.T) {
	// Path 0-1-2-3 with parts {0,1} and {2,3} -> coarse path of 2 vertices.
	g := pathGraph(4)
	p := &Partition{Membership: []int{0, 0, 1, 1}, NumParts: 2}
	cg := CoarseGraph(g, p)
	if err := cg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cg.N != 2 || cg.NumEdges() != 1 {
		t.Fatalf("coarse graph n=%d edges=%d, want 2, 1", cg.N, cg.NumEdges())
	}
	if !cg.HasEdge(0, 1) {
		t.Fatal("coarse edge missing")
	}
}

func TestCoarseGraphNoSelfLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(rng, 50)
		// Consecutive vertices in parts of 1 to 4: most parts hold an
		// edge of g, which must not become a self-loop.
		p := &Partition{Membership: make([]int, g.N)}
		for v, left := 0, 0; v < g.N; v++ {
			if left == 0 {
				p.NumParts++
				left = 1 + rng.Intn(4)
			}
			p.Membership[v] = p.NumParts - 1
			left--
		}
		cg := CoarseGraph(g, p)
		if err := cg.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if cg.N != p.NumParts {
			t.Fatalf("trial %d: coarse n=%d, parts=%d", trial, cg.N, p.NumParts)
		}
	}
}

func TestCoarseGraphPreservesConnectivity(t *testing.T) {
	m := gen.Grid2D(12, 12)
	g := FromMatrix(m)
	p := CoarsenContiguous(m, 6)
	cg := CoarseGraph(g, p)
	_, count := cg.Components()
	if count != 1 {
		t.Fatalf("coarsening a connected grid produced %d components", count)
	}
}

func TestPermuteThenCoarsenPipeline(t *testing.T) {
	// The CSR-k construction route: RCM order, then contiguous grouping.
	m := gen.TriMesh(12, 12, 5)
	g := FromMatrix(m)
	perm := g.RCM()
	pm, err := sparse.PermuteSym(m, perm)
	if err != nil {
		t.Fatal(err)
	}
	p := CoarsenContiguous(pm, 4)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	g2 := CoarseGraph(FromMatrix(pm), p)
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
	if g2.N >= g.N {
		t.Fatal("coarse graph not smaller")
	}
}
