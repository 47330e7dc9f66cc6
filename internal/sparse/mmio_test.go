package sparse

import (
	"bufio"
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestReadMatrixMarketGeneral(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real general
% a comment
3 3 4
1 1 2.0
2 2 3.0
3 1 -1.5
3 3 4.0
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.N != 3 || m.NNZ() != 4 {
		t.Fatalf("n=%d nnz=%d, want 3, 4", m.N, m.NNZ())
	}
	if m.At(2, 0) != -1.5 {
		t.Fatalf("At(2,0) = %v, want -1.5", m.At(2, 0))
	}
}

func TestReadMatrixMarketSymmetricExpansion(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real symmetric
3 3 4
1 1 1.0
2 1 5.0
3 3 2.0
3 2 7.0
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 5 || m.At(1, 0) != 5 {
		t.Fatal("symmetric entry not mirrored")
	}
	if m.At(0, 0) != 1 {
		t.Fatal("diagonal entry doubled")
	}
	if !m.IsStructurallySymmetric() {
		t.Fatal("expanded matrix not symmetric")
	}
}

func TestReadMatrixMarketPattern(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate pattern symmetric
2 2 2
1 1
2 1
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 1 || m.At(0, 1) != 1 {
		t.Fatal("pattern values should be 1")
	}
}

// mmMalformed is every malformed-input shape ReadMatrixMarket must
// refuse; it also seeds FuzzReadMatrixMarket.
var mmMalformed = map[string]string{
	"empty":            "",
	"no banner":        "3 3 1\n1 1 1\n",
	"bad object":       "%%MatrixMarket vector coordinate real general\n3 3 0\n",
	"bad format":       "%%MatrixMarket matrix array real general\n3 3 0\n",
	"bad field":        "%%MatrixMarket matrix coordinate complex general\n3 3 0\n",
	"bad symmetry":     "%%MatrixMarket matrix coordinate real hermitian\n3 3 0\n",
	"not square":       "%%MatrixMarket matrix coordinate real general\n3 2 0\n",
	"missing size":     "%%MatrixMarket matrix coordinate real general\n",
	"bad size line":    "%%MatrixMarket matrix coordinate real general\n3 3\n",
	"short entry":      "%%MatrixMarket matrix coordinate real general\n3 3 1\n1\n",
	"missing value":    "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 1\n",
	"bad row index":    "%%MatrixMarket matrix coordinate real general\n3 3 1\nx 1 1\n",
	"bad col index":    "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 x 1\n",
	"bad value":        "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 1 x\n",
	"out of range":     "%%MatrixMarket matrix coordinate real general\n3 3 1\n4 1 1\n",
	"wrong nnz count":  "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1\n",
	"negative nnz":     "%%MatrixMarket matrix coordinate real general\n3 3 -1\n",
	"negative dims":    "%%MatrixMarket matrix coordinate real general\n-3 -3 0\n",
	"too many entries": "%%MatrixMarket matrix coordinate real general\n3 3 99999999999\n",
}

func TestReadMatrixMarketErrors(t *testing.T) {
	for name, src := range mmMalformed {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadMatrixMarket(strings.NewReader(src)); err == nil {
				t.Fatalf("accepted malformed input %q", src)
			}
		})
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	m := fromDense([][]float64{
		{1.25, 0, -3},
		{0, 2, 0},
		{7, 0, 0.5},
	})
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(toDense(m), toDense(back)) {
		t.Fatalf("round trip mismatch:\n%v\n%v", toDense(m), toDense(back))
	}
}

// fuzzMaxDim bounds the declared dimensions FuzzReadMatrixMarket feeds to
// the reader: a CSR needs O(rows) memory for its row pointer in any
// reader, so a size line declaring 2e9 rows is an out-of-memory by
// design, not a finding.
const fuzzMaxDim = 1 << 16

// FuzzReadMatrixMarket: the reader never panics on untrusted input, and
// every matrix it accepts is square with every stored entry in range.
func FuzzReadMatrixMarket(f *testing.F) {
	for _, src := range mmMalformed {
		f.Add(src)
	}
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, fromDense([][]float64{
		{1.25, 0, -3},
		{0, 2, 0},
		{7, 0, 0.5},
	})); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("%%MatrixMarket matrix coordinate pattern symmetric\n2 2 2\n1 1\n2 1\n")
	f.Fuzz(func(t *testing.T, src string) {
		sc := bufio.NewScanner(strings.NewReader(src))
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		if hdr, err := readMMHeader(sc); err == nil && (hdr.Rows > fuzzMaxDim || hdr.Cols > fuzzMaxDim) {
			t.Skip("declared dimensions above fuzzMaxDim")
		}
		m, err := ReadMatrixMarket(strings.NewReader(src))
		if err != nil {
			return
		}
		if m.N <= 0 || len(m.RowPtr) != m.N+1 || m.RowPtr[0] != 0 {
			t.Fatalf("accepted matrix has n=%d with %d row pointers", m.N, len(m.RowPtr))
		}
		nnz := m.RowPtr[m.N]
		if len(m.Col) != nnz || len(m.Val) != nnz {
			t.Fatalf("row pointers end at %d, but %d columns and %d values", nnz, len(m.Col), len(m.Val))
		}
		for i := 0; i < m.N; i++ {
			if m.RowPtr[i] > m.RowPtr[i+1] {
				t.Fatalf("row %d: row pointers decrease", i)
			}
			for _, j := range m.Col[m.RowPtr[i]:m.RowPtr[i+1]] {
				if j < 0 || j >= m.N {
					t.Fatalf("row %d: column %d out of range for n=%d", i, j, m.N)
				}
			}
		}
	})
}
