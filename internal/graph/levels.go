package graph

import (
	"fmt"

	"stsk/internal/sparse"
)

// DAGLevels computes the classic level sets of a lower-triangular system
// [Saltz 1990]: level(i) = 1 + max{ level(j) : L(i,j) ≠ 0, j < i }, with
// sourceless rows at level 0. Rows within a level are mutually independent
// and can be solved concurrently once all earlier levels are complete.
//
// The matrix must be lower triangular; only the strictly-lower pattern is
// read, so a missing diagonal is fine here.
func DAGLevels(l *sparse.CSR) (levels []int, numLevels int, err error) {
	if !l.IsLowerTriangular() {
		return nil, 0, fmt.Errorf("graph: DAGLevels requires a lower-triangular matrix")
	}
	levels = make([]int, l.N)
	for i := 0; i < l.N; i++ {
		lv := 0
		cols, _ := l.Row(i)
		for _, j := range cols {
			if j >= i {
				break
			}
			if levels[j]+1 > lv {
				lv = levels[j] + 1
			}
		}
		levels[i] = lv
		if lv+1 > numLevels {
			numLevels = lv + 1
		}
	}
	return levels, numLevels, nil
}

// VerifyLevels checks the defining property of triangular level sets: every
// strictly-lower entry of l crosses from a strictly smaller level.
func VerifyLevels(l *sparse.CSR, levels []int) error {
	if len(levels) != l.N {
		return fmt.Errorf("graph: %d levels for %d rows", len(levels), l.N)
	}
	for i := 0; i < l.N; i++ {
		cols, _ := l.Row(i)
		for _, j := range cols {
			if j >= i {
				break
			}
			if levels[j] >= levels[i] {
				return fmt.Errorf("graph: dependency (%d←%d) does not cross levels: %d vs %d",
					i, j, levels[i], levels[j])
			}
		}
	}
	return nil
}

// GroupByLabel converts a per-vertex label array (colours or levels) into
// packs: packs[k] lists the vertices with label k, in ascending vertex
// order. Labels must lie in [0, numLabels).
func GroupByLabel(labels []int, numLabels int) [][]int {
	packs := make([][]int, numLabels)
	counts := make([]int, numLabels)
	for _, l := range labels {
		counts[l]++
	}
	for k := range packs {
		packs[k] = make([]int, 0, counts[k])
	}
	for v, l := range labels {
		packs[l] = append(packs[l], v)
	}
	return packs
}
