package gen

import (
	"math"

	"stsk/internal/sparse"
)

// Spec identifies one matrix of the reproduction test suite and how to
// build it at a chosen scale.
type Spec struct {
	ID        string // paper label: G1, D1, S1, D2..D10
	Name      string // UF matrix name it stands in for
	Class     string // generator class
	PaperN    int    // rows of the original UF matrix
	PaperNNZ  int64  // nonzeros of the original UF matrix
	PaperDens float64
	Build     func(scale int) *sparse.CSR // scale ≈ target number of rows
}

// cbrt returns the integer cube-root-ish grid side for ~n points.
func cbrt(n int) int {
	s := int(math.Cbrt(float64(n)))
	if s < 2 {
		s = 2
	}
	return s
}

func sqrtSide(n int) int {
	s := int(math.Sqrt(float64(n)))
	if s < 2 {
		s = 2
	}
	return s
}

// PaperSuite returns the 12-matrix test suite of Table 1, with each UF
// matrix replaced by its generator class at roughly `scale` rows.
// Matrices keep the paper's IDs (G1, D1, S1, D2..D10) and density class:
//
//	G1  ldoor             44.63 nnz/row  → FEM3D, 2 dofs/node
//	D1  rgg_n_2_21_s0     14.82          → RGG targeting degree 14
//	S1  nlpkkt160         27.01          → KKT3D 27-point stencil
//	D2  delaunay_n23       7.00          → TriMesh
//	D3  road_central       3.41          → RoadNet
//	D4  hugetrace-00020    4.00          → QuadDual
//	D5  delaunay_n24       7.00          → TriMesh (larger)
//	D6  hugebubbles-00000  4.00          → QuadDual
//	D7  hugebubbles-00010  4.00          → QuadDual
//	D8  hugebubbles-00020  4.00          → QuadDual
//	D9  road_usa           3.41          → RoadNet
//	D10 europe_osm         3.12          → RoadNet (sparser)
//
// Relative sizes across the suite follow the paper loosely (D10 largest);
// the absolute scale is a parameter because pack structure, not size,
// drives every figure.
func PaperSuite(scale int) []Spec {
	if scale < 64 {
		scale = 64
	}
	return []Spec{
		{
			ID: "G1", Name: "ldoor", Class: "fem3d",
			PaperN: 952203, PaperNNZ: 42493817, PaperDens: 44.63,
			Build: func(s int) *sparse.CSR {
				side := cbrt(s / 2)
				return FEM3D(side, side, side, 2)
			},
		},
		{
			ID: "D1", Name: "rgg_n_2_21_s0", Class: "rgg",
			PaperN: 2097152, PaperNNZ: 31073142, PaperDens: 14.82,
			Build: func(s int) *sparse.CSR {
				return RGG(s, RGGDegree(s, 14), 21)
			},
		},
		{
			ID: "S1", Name: "nlpkkt160", Class: "kkt3d",
			PaperN: 8345600, PaperNNZ: 225422112, PaperDens: 27.01,
			Build: func(s int) *sparse.CSR {
				side := cbrt(s * 5 / 4)
				return KKT3D(side, side, side)
			},
		},
		{
			ID: "D2", Name: "delaunay_n23", Class: "trimesh",
			PaperN: 8388608, PaperNNZ: 58720176, PaperDens: 7.00,
			Build: func(s int) *sparse.CSR {
				side := sqrtSide(s * 5 / 4)
				return TriMesh(side, side, 23)
			},
		},
		{
			ID: "D3", Name: "road_central", Class: "roadnet",
			PaperN: 14081816, PaperNNZ: 47948642, PaperDens: 3.41,
			Build: func(s int) *sparse.CSR {
				side := sqrtSide(s / 7)
				return RoadNet(side, side, 3, 6, 3)
			},
		},
		{
			ID: "D4", Name: "hugetrace-00020", Class: "quaddual",
			PaperN: 16002413, PaperNNZ: 64000039, PaperDens: 4.00,
			Build: func(s int) *sparse.CSR {
				side := sqrtSide(s * 3 / 4)
				return QuadDual(side, side, 20)
			},
		},
		{
			ID: "D5", Name: "delaunay_n24", Class: "trimesh",
			PaperN: 16777216, PaperNNZ: 117440418, PaperDens: 7.00,
			Build: func(s int) *sparse.CSR {
				side := sqrtSide(s * 3 / 2)
				return TriMesh(side, side, 24)
			},
		},
		{
			ID: "D6", Name: "hugebubbles-00000", Class: "quaddual",
			PaperN: 18318143, PaperNNZ: 73258305, PaperDens: 4.00,
			Build: func(s int) *sparse.CSR {
				side := sqrtSide(s * 7 / 8)
				return QuadDual(side, side, 21)
			},
		},
		{
			ID: "D7", Name: "hugebubbles-00010", Class: "quaddual",
			PaperN: 19458087, PaperNNZ: 77817615, PaperDens: 4.00,
			Build: func(s int) *sparse.CSR {
				side := sqrtSide(s * 15 / 16)
				return QuadDual(side, side, 22)
			},
		},
		{
			ID: "D8", Name: "hugebubbles-00020", Class: "quaddual",
			PaperN: 21198119, PaperNNZ: 84778477, PaperDens: 4.00,
			Build: func(s int) *sparse.CSR {
				side := sqrtSide(s)
				return QuadDual(side, side, 23)
			},
		},
		{
			ID: "D9", Name: "road_usa", Class: "roadnet",
			PaperN: 23947347, PaperNNZ: 81655971, PaperDens: 3.41,
			Build: func(s int) *sparse.CSR {
				side := sqrtSide(s / 6)
				return RoadNet(side, side, 3, 5, 9)
			},
		},
		{
			ID: "D10", Name: "europe_osm", Class: "roadnet",
			PaperN: 50912018, PaperNNZ: 159021338, PaperDens: 3.12,
			Build: func(s int) *sparse.CSR {
				side := sqrtSide(s * 2 / 9)
				return RoadNet(side, side, 4, 4, 10)
			},
		},
	}
}

// BySuiteID returns the spec with the given paper label, or nil.
func BySuiteID(specs []Spec, id string) *Spec {
	for i := range specs {
		if specs[i].ID == id {
			return &specs[i]
		}
	}
	return nil
}

// ByClass builds the matrix of one generator class at roughly n rows —
// "grid2d", "grid3d", "kkt3d", "fem3d", "rgg", "trimesh", "quaddual" or
// "roadnet" — and returns nil for any other name. An n below 16 is read
// as 16. Grid sides are exact integer roots (rootSide), not PaperSuite's
// float sizing, which stays as it is so the suite matrices keep their
// shapes.
func ByClass(class string, n int) *sparse.CSR {
	n = max(n, 16)
	side2, side3 := rootSide(n, 2), rootSide(n, 3)
	switch class {
	case "grid2d":
		return Grid2D(side2, side2)
	case "grid3d":
		return Grid3D(side3, side3, side3)
	case "kkt3d":
		return KKT3D(side3, side3, side3)
	case "fem3d":
		s := rootSide(n/2, 3)
		return FEM3D(s, s, s, 2)
	case "rgg":
		return RGG(n, RGGDegree(n, 14), 21)
	case "trimesh":
		return TriMesh(side2, side2, 7)
	case "quaddual":
		s := rootSide(n/2, 2)
		return QuadDual(s, s, 4)
	case "roadnet":
		s := rootSide(n/7, 2)
		return RoadNet(s, s, 3, 5, 3)
	}
	return nil
}

// rootSide returns the largest s ≥ 2 with s^dim ≤ n: the side of a
// dim-dimensional grid of at most n points.
func rootSide(n, dim int) int {
	s := 2
	for {
		p := 1
		for range dim {
			p *= s + 1
		}
		if p > n {
			return s
		}
		s++
	}
}
