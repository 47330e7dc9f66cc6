package graph

import (
	"math/rand"
	"testing"

	"stsk/internal/gen"
	"stsk/internal/sparse"
)

func TestDAGLevelsBidiagonal(t *testing.T) {
	// Bidiagonal L: every row depends on the previous one -> n levels.
	n := 6
	coo := sparse.NewCOO(n, 2*n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 1)
		if i > 0 {
			coo.Add(i, i-1, 1)
		}
	}
	l := coo.ToCSR()
	levels, nl, err := DAGLevels(l)
	if err != nil {
		t.Fatal(err)
	}
	if nl != n {
		t.Fatalf("levels = %d, want %d", nl, n)
	}
	for i, lv := range levels {
		if lv != i {
			t.Fatalf("level[%d] = %d, want %d", i, lv, i)
		}
	}
	if err := VerifyLevels(l, levels); err != nil {
		t.Fatal(err)
	}
}

func TestDAGLevelsDiagonal(t *testing.T) {
	n := 5
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 1)
	}
	l := coo.ToCSR()
	_, nl, err := DAGLevels(l)
	if err != nil {
		t.Fatal(err)
	}
	if nl != 1 {
		t.Fatalf("diagonal matrix has %d levels, want 1", nl)
	}
}

func TestDAGLevelsRejectsUpper(t *testing.T) {
	coo := sparse.NewCOO(2, 2)
	coo.Add(0, 1, 1)
	coo.Add(1, 1, 1)
	if _, _, err := DAGLevels(coo.ToCSR()); err == nil {
		t.Fatal("accepted upper-triangular input")
	}
}

func TestDAGLevelsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(50)
		coo := sparse.NewCOO(n, 4*n)
		for i := 0; i < n; i++ {
			coo.Add(i, i, 1)
			for e := 0; e < rng.Intn(4); e++ {
				j := rng.Intn(i + 1)
				if j < i {
					coo.Add(i, j, 1)
				}
			}
		}
		l := coo.ToCSR()
		levels, nl, err := DAGLevels(l)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyLevels(l, levels); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Levels must be exactly 0..nl-1 with no gaps.
		seen := make([]bool, nl)
		for _, lv := range levels {
			if lv < 0 || lv >= nl {
				t.Fatalf("trial %d: level %d out of range", trial, lv)
			}
			seen[lv] = true
		}
		for lv, ok := range seen {
			if !ok {
				t.Fatalf("trial %d: level %d empty", trial, lv)
			}
		}
	}
}

func TestBFSLevelsFewerOnCoarseGraph(t *testing.T) {
	// The paper's motivation for applying level sets to G2 (§3.2): the
	// coarse graph has fewer vertices, hence fewer levels.
	m := gen.Grid2D(24, 24)
	g1 := FromMatrix(m)
	part := CoarsenContiguous(m, 4)
	g2 := CoarseGraph(g1, part)
	// Both graphs are connected: their BFS levels from a vertex are its
	// distances 0 to the deepest.
	levels := func(g *Graph) int {
		n := 0
		g.BFS(g.MaxDegreeVertex(), func(_, d int) { n = max(n, d+1) })
		return n
	}
	nl1, nl2 := levels(g1), levels(g2)
	if nl2 >= nl1 {
		t.Fatalf("coarse graph has %d BFS levels, fine has %d; want fewer", nl2, nl1)
	}
}

func TestGroupByLabel(t *testing.T) {
	labels := []int{1, 0, 1, 2, 0}
	packs := GroupByLabel(labels, 3)
	if len(packs) != 3 {
		t.Fatalf("packs = %d, want 3", len(packs))
	}
	if len(packs[0]) != 2 || packs[0][0] != 1 || packs[0][1] != 4 {
		t.Fatalf("pack 0 = %v", packs[0])
	}
	if len(packs[2]) != 1 || packs[2][0] != 3 {
		t.Fatalf("pack 2 = %v", packs[2])
	}
}

func TestVerifyLevelsCatchesViolation(t *testing.T) {
	coo := sparse.NewCOO(2, 3)
	coo.Add(0, 0, 1)
	coo.Add(1, 0, 1)
	coo.Add(1, 1, 1)
	l := coo.ToCSR()
	if err := VerifyLevels(l, []int{0, 0}); err == nil {
		t.Fatal("same-level dependency accepted")
	}
	if err := VerifyLevels(l, []int{0}); err == nil {
		t.Fatal("short level array accepted")
	}
}
