package sparse

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"strings"
)

// Matrix Market (coordinate) I/O. Supports the subset needed to load the
// University of Florida collection matrices the paper uses: coordinate
// format, real / integer / pattern fields, general or symmetric symmetry.

// MMHeader describes a parsed Matrix Market banner and size line.
type MMHeader struct {
	Object    string // "matrix"
	Format    string // "coordinate"
	Field     string // "real", "integer", "pattern"
	Symmetry  string // "general", "symmetric"
	Rows      int
	Cols      int
	DeclNNZ   int // nonzeros declared in the size line (file entries)
	Symmetric bool
}

// mmCapHint caps the triplet capacity reserved from a size line's
// declared entry count: the count is untrusted, so the buffers start at
// most this large and grow as entries are actually read.
const mmCapHint = 1 << 16

// ReadMatrixMarket parses a Matrix Market coordinate stream into CSR.
// Symmetric files are expanded to full storage (both triangles).
// Pattern files receive value 1 for every entry.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	br := bufio.NewScanner(r)
	br.Buffer(make([]byte, 1<<20), 1<<20)

	hdr, err := readMMHeader(br)
	if err != nil {
		return nil, err
	}
	if hdr.Rows != hdr.Cols {
		return nil, fmt.Errorf("sparse: matrix market %dx%d is not square", hdr.Rows, hdr.Cols)
	}
	capHint := min(hdr.DeclNNZ, mmCapHint)
	if hdr.Symmetric {
		capHint *= 2
	}
	coo := NewCOO(hdr.Rows, capHint)
	seen := 0
	for br.Scan() {
		line := strings.TrimSpace(br.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, fmt.Errorf("sparse: malformed matrix market entry %q", line)
		}
		i, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad row index %q: %v", f[0], err)
		}
		j, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad column index %q: %v", f[1], err)
		}
		v := 1.0
		if hdr.Field != "pattern" {
			if len(f) < 3 {
				return nil, fmt.Errorf("sparse: entry %q missing value", line)
			}
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("sparse: bad value %q: %v", f[2], err)
			}
		}
		i--
		j--
		if i < 0 || i >= hdr.Rows || j < 0 || j >= hdr.Cols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) out of range for %dx%d", i+1, j+1, hdr.Rows, hdr.Cols)
		}
		if hdr.Symmetric && i != j {
			coo.AddSym(i, j, v)
		} else {
			coo.Add(i, j, v)
		}
		seen++
	}
	if err := br.Err(); err != nil {
		return nil, err
	}
	if seen != hdr.DeclNNZ {
		return nil, fmt.Errorf("sparse: matrix market declares %d entries, found %d", hdr.DeclNNZ, seen)
	}
	return coo.ToCSR(), nil
}

func readMMHeader(sc *bufio.Scanner) (*MMHeader, error) {
	if !sc.Scan() {
		return nil, fmt.Errorf("sparse: empty matrix market stream")
	}
	banner := strings.Fields(strings.ToLower(sc.Text()))
	if len(banner) < 5 || banner[0] != "%%matrixmarket" {
		return nil, fmt.Errorf("sparse: missing %%%%MatrixMarket banner")
	}
	hdr := &MMHeader{
		Object:   banner[1],
		Format:   banner[2],
		Field:    banner[3],
		Symmetry: banner[4],
	}
	if hdr.Object != "matrix" {
		return nil, fmt.Errorf("sparse: unsupported object %q", hdr.Object)
	}
	if hdr.Format != "coordinate" {
		return nil, fmt.Errorf("sparse: unsupported format %q (only coordinate)", hdr.Format)
	}
	switch hdr.Field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("sparse: unsupported field %q", hdr.Field)
	}
	switch hdr.Symmetry {
	case "general":
	case "symmetric":
		hdr.Symmetric = true
	default:
		return nil, fmt.Errorf("sparse: unsupported symmetry %q", hdr.Symmetry)
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("sparse: malformed size line %q", line)
		}
		var err error
		if hdr.Rows, err = strconv.Atoi(f[0]); err != nil {
			return nil, fmt.Errorf("sparse: bad row count: %v", err)
		}
		if hdr.Cols, err = strconv.Atoi(f[1]); err != nil {
			return nil, fmt.Errorf("sparse: bad column count: %v", err)
		}
		if hdr.DeclNNZ, err = strconv.Atoi(f[2]); err != nil {
			return nil, fmt.Errorf("sparse: bad nnz count: %v", err)
		}
		if hdr.Rows <= 0 || hdr.Cols <= 0 || hdr.DeclNNZ < 0 {
			return nil, fmt.Errorf("sparse: bad size line %q", line)
		}
		// At most one entry per coordinate: nnz ≤ rows·cols, with the
		// product taken in 128 bits so it cannot overflow.
		if hi, lo := bits.Mul64(uint64(hdr.Rows), uint64(hdr.Cols)); hi == 0 && uint64(hdr.DeclNNZ) > lo {
			return nil, fmt.Errorf("sparse: size line %q declares more entries than a %dx%d matrix holds", line, hdr.Rows, hdr.Cols)
		}
		return hdr, nil
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("sparse: matrix market stream missing size line")
}

// WriteMatrixMarket writes m in coordinate real general format.
func WriteMatrixMarket(w io.Writer, m *CSR) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", m.N, m.N, m.NNZ()); err != nil {
		return err
	}
	for i := 0; i < m.N; i++ {
		cols, vals := m.Row(i)
		for k, j := range cols {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, j+1, vals[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
