// Package snapshot defines the on-disk persistence format for built
// STS-k plans: a versioned, checksummed binary image of everything the
// ordering pipeline produced that cannot be cheaply derived again — the
// row permutation, the permuted factor's CSR arrays at the current value
// epoch, the super-row and pack boundaries — plus opaque embedder
// metadata (the serve registry stores its plan spec and value version
// there). Neither the task DAG nor the source matrix's pattern is
// stored: the DAG is a function of the factor's pattern and the
// boundaries, and the source pattern of the factor's pattern and the
// permutation, so a loader derives each the way a built plan does.
//
// The format exists to amortize the expensive symbolic build across
// process lifetimes: a cold `stsk.Build` is seconds of ordering-pipeline
// CPU, a snapshot reload is one sequential file read plus O(nnz) decode.
// Every multi-byte value is little-endian; numeric arrays are stored as
// raw fixed-width sections behind one CRC-32C (hardware-accelerated on
// amd64/arm64, so checksumming never dominates a reload) so a reload is
// bulk reads, not per-element parsing decisions.
//
// Layout:
//
//	offset  size  field
//	0       8     magic "STSKSNAP"
//	8       4     format version (uint32, currently 3)
//	12      4     reserved (0)
//	16      8     payload length in bytes (uint64)
//	24      4     CRC-32C (Castagnoli) of the payload (uint32)
//	28      4     reserved (0)
//	32      …     payload: fixed meta block, then length-prefixed sections
//
// Payload sections, in order (each array is a uint64 element count
// followed by raw little-endian elements; a zero count marks an absent
// optional section). Int sections carry one width byte (4 or 8) after
// the count and use the narrow encoding whenever every value fits in an
// int32 — which is every plan this library can build, halving the
// dominant index arrays on disk:
//
//	meta        method int32, n uint64, valueVersion uint64
//	perm        []int       row permutation (input row → factor row)
//	rowPtr      []int       factor CSR row pointers (len n+1)
//	col         []int       factor CSR column indices
//	val         []float64   factor values at the serialized value epoch
//	superPtr    []int       super-row boundaries (csrk "index2")
//	packPtr     []int       pack boundaries (csrk "index3")
//	meta blob   []byte      opaque embedder metadata (optional)
//	auxVals     []float64   opaque embedder value array (optional)
//
// Version 1 files, which also carried the task DAG and a pack count, and
// version 2 files, which also carried the source matrix's pattern, are
// refused with ErrVersion like any other revision.
//
// Read refuses anything it cannot prove whole: a wrong magic, an
// unsupported format version (ErrVersion), a truncated stream, a payload
// whose checksum does not match, or a section whose declared length
// exceeds the bytes actually present (ErrInvalid) — corruption is an
// error, never a panic or a partial image. Semantic validation of the
// decoded arrays (triangularity, pack independence, permutation
// bijectivity) is the caller's job; stsk.ReadSnapshot performs it before
// constructing a Plan.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
)

const (
	magic = "STSKSNAP"

	// FormatVersion is the on-disk format revision this build reads and
	// writes. Bump it on any incompatible layout change; Read refuses
	// other versions cleanly instead of mis-decoding them.
	FormatVersion = 3

	headerSize = 32
	metaSize   = 20 // method int32, n uint64, valueVersion uint64
)

// Sentinels matched with errors.Is by loaders that fall back to a cold
// build when a snapshot cannot be used.
var (
	// ErrInvalid reports a snapshot that is not whole: bad magic,
	// truncation, checksum mismatch, or internally inconsistent section
	// lengths.
	ErrInvalid = errors.New("snapshot: invalid or corrupted snapshot")

	// ErrVersion reports a snapshot written by an incompatible format
	// revision.
	ErrVersion = errors.New("snapshot: unsupported snapshot format version")
)

// crcTable selects CRC-32C (Castagnoli), which Go computes with
// dedicated instructions on amd64 and arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Image is the decoded (or to-be-encoded) content of one plan snapshot.
// Slices are aliased, not copied, by Write; Read returns freshly
// allocated arrays the caller owns.
type Image struct {
	Method       int32
	N            int
	ValueVersion uint64

	Perm   []int
	RowPtr []int
	Col    []int
	Val    []float64

	SuperPtr []int
	PackPtr  []int

	// Meta and AuxVals are opaque embedder sections, carried verbatim
	// under the same checksum. The serve registry stores its plan spec +
	// registry value version in Meta and the latest input-order value
	// array in AuxVals.
	Meta    []byte
	AuxVals []float64
}

// Write encodes img and writes it to w: header first, then the
// checksummed payload.
func Write(w io.Writer, img *Image) error {
	var e encoder
	// Reserve a worst-case payload up front so encoding never regrows.
	size := metaSize + len(img.Meta)
	for _, a := range [][]int{img.Perm, img.RowPtr, img.Col, img.SuperPtr, img.PackPtr} {
		size += 9 + 8*len(a)
	}
	size += 8*3 + 8*(len(img.Val)+len(img.AuxVals))
	e.b = make([]byte, 0, size)
	e.meta(img)
	e.ints(img.Perm)
	e.ints(img.RowPtr)
	e.ints(img.Col)
	e.floats(img.Val)
	e.ints(img.SuperPtr)
	e.ints(img.PackPtr)
	e.blob(img.Meta)
	e.floats(img.AuxVals)

	var hdr [headerSize]byte
	copy(hdr[:8], magic)
	binary.LittleEndian.PutUint32(hdr[8:12], FormatVersion)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(e.b)))
	binary.LittleEndian.PutUint32(hdr[24:28], crc32.Checksum(e.b, crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(e.b)
	return err
}

// Read decodes one snapshot from r, verifying the magic, format version,
// and payload checksum before touching any section.
func Read(r io.Reader) (*Image, error) {
	var hdr [headerSize]byte
	n, _ := io.ReadFull(r, hdr[:]) // a short read fails checkHeader as truncated
	payloadLen, err := checkHeader(hdr[:n])
	if err != nil {
		return nil, err
	}
	// Copy through a growing buffer rather than allocating payloadLen up
	// front: a corrupted header cannot demand a huge allocation before the
	// (truncated) stream runs dry.
	var buf bytes.Buffer
	if n, err := io.CopyN(&buf, r, payloadLen); err != nil || n != payloadLen {
		return nil, fmt.Errorf("%w: truncated payload (%d of %d bytes)", ErrInvalid, buf.Len(), payloadLen)
	}
	return decodePayload(hdr[:], buf.Bytes())
}

// checkHeader verifies the header at the start of b — whole, with the
// magic and this build's format version — and returns the payload length
// it declares.
func checkHeader(b []byte) (int64, error) {
	switch {
	case len(b) < headerSize:
		return 0, fmt.Errorf("%w: truncated header", ErrInvalid)
	case string(b[:8]) != magic:
		return 0, fmt.Errorf("%w: bad magic", ErrInvalid)
	}
	if v := binary.LittleEndian.Uint32(b[8:12]); v != FormatVersion {
		return 0, fmt.Errorf("%w: format %d, this build reads %d", ErrVersion, v, FormatVersion)
	}
	n := binary.LittleEndian.Uint64(b[16:24])
	if n > math.MaxInt64 {
		return 0, fmt.Errorf("%w: payload length overflows", ErrInvalid)
	}
	return int64(n), nil
}

// decodePayload verifies the payload against the (already magic- and
// version-checked) header and decodes the sections.
func decodePayload(hdr, payload []byte) (*Image, error) {
	wantCRC := binary.LittleEndian.Uint32(hdr[24:28])
	if crc32.Checksum(payload, crcTable) != wantCRC {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrInvalid)
	}

	d := decoder{b: payload}
	img := &Image{}
	if err := d.meta(img); err != nil {
		return nil, err
	}
	var err error
	read := func(dst *[]int) {
		if err == nil {
			*dst, err = d.ints()
		}
	}
	read(&img.Perm)
	read(&img.RowPtr)
	read(&img.Col)
	if err == nil {
		img.Val, err = d.floats()
	}
	read(&img.SuperPtr)
	read(&img.PackPtr)
	if err == nil {
		img.Meta, err = d.blob()
	}
	if err == nil {
		img.AuxVals, err = d.floats()
	}
	if err != nil {
		return nil, err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrInvalid, len(d.b)-d.off)
	}
	return img, nil
}

// WriteFile writes img to path atomically: a temp file in the same
// directory, synced, then renamed over the destination — a crashed or
// concurrent writer can never leave a half-written snapshot under the
// final name.
func WriteFile(path string, img *Image) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".snap-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := Write(f, img); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// ReadFile reads one snapshot from path. Unlike the streaming Read it
// loads the file in one bulk read and decodes in place — the file's real
// size bounds the allocation, so the incremental-copy defence against
// forged payload lengths is unnecessary here.
func ReadFile(path string) (*Image, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payloadLen, err := checkHeader(raw)
	if err != nil {
		return nil, err
	}
	if payloadLen != int64(len(raw)-headerSize) {
		return nil, fmt.Errorf("%w: payload length %d, file carries %d bytes", ErrInvalid, payloadLen, len(raw)-headerSize)
	}
	return decodePayload(raw[:headerSize], raw[headerSize:])
}

// encoder accumulates the payload in memory; plans are a few dozen MiB
// at the largest served scales, well within one buffered build.
type encoder struct {
	b []byte
}

func (e *encoder) u64(v uint64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, v)
}

func (e *encoder) meta(img *Image) {
	e.b = binary.LittleEndian.AppendUint32(e.b, uint32(img.Method))
	e.u64(uint64(img.N))
	e.u64(img.ValueVersion)
}

// ints encodes an int section with its adaptive width byte: 4-byte
// elements whenever every value fits in an int32 (always, for plans this
// library can build — n and nnz are int32-bounded), 8-byte otherwise.
func (e *encoder) ints(a []int) {
	e.u64(uint64(len(a)))
	if len(a) == 0 {
		return
	}
	narrow := true
	for _, v := range a {
		if v < math.MinInt32 || v > math.MaxInt32 {
			narrow = false
			break
		}
	}
	if narrow {
		e.b = append(e.b, 4)
		for _, v := range a {
			e.b = binary.LittleEndian.AppendUint32(e.b, uint32(int32(v)))
		}
		return
	}
	e.b = append(e.b, 8)
	for _, v := range a {
		e.u64(uint64(int64(v)))
	}
}

func (e *encoder) floats(a []float64) {
	e.u64(uint64(len(a)))
	for _, v := range a {
		e.u64(math.Float64bits(v))
	}
}

func (e *encoder) blob(a []byte) {
	e.u64(uint64(len(a)))
	e.b = append(e.b, a...)
}

// decoder walks the checksummed payload with bounds checks: every
// section's declared element count is validated against the bytes that
// remain before anything is allocated, so a forged length cannot demand
// an absurd allocation or index past the buffer.
type decoder struct {
	b   []byte
	off int
}

func (d *decoder) u64() (uint64, error) {
	if len(d.b)-d.off < 8 {
		return 0, fmt.Errorf("%w: truncated section", ErrInvalid)
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v, nil
}

// count reads an element count and verifies count*size bytes remain.
func (d *decoder) count(size int) (int, error) {
	n, err := d.u64()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(d.b)-d.off)/uint64(size) {
		return 0, fmt.Errorf("%w: section of %d elements exceeds remaining payload", ErrInvalid, n)
	}
	return int(n), nil
}

func (d *decoder) meta(img *Image) error {
	if len(d.b)-d.off < metaSize {
		return fmt.Errorf("%w: truncated meta block", ErrInvalid)
	}
	img.Method = int32(binary.LittleEndian.Uint32(d.b[d.off:]))
	n := binary.LittleEndian.Uint64(d.b[d.off+4:])
	img.ValueVersion = binary.LittleEndian.Uint64(d.b[d.off+12:])
	d.off += metaSize
	if n > math.MaxInt32 {
		return fmt.Errorf("%w: dimension %d out of range", ErrInvalid, n)
	}
	img.N = int(n)
	return nil
}

func (d *decoder) ints() ([]int, error) {
	cnt, err := d.u64()
	if err != nil {
		return nil, err
	}
	if cnt == 0 {
		return nil, nil
	}
	if len(d.b)-d.off < 1 {
		return nil, fmt.Errorf("%w: truncated section", ErrInvalid)
	}
	width := int(d.b[d.off])
	d.off++
	if width != 4 && width != 8 {
		return nil, fmt.Errorf("%w: int section width %d", ErrInvalid, width)
	}
	if cnt > uint64(len(d.b)-d.off)/uint64(width) {
		return nil, fmt.Errorf("%w: section of %d elements exceeds remaining payload", ErrInvalid, cnt)
	}
	out := make([]int, cnt)
	if width == 4 {
		for i := range out {
			out[i] = int(int32(binary.LittleEndian.Uint32(d.b[d.off:])))
			d.off += 4
		}
		return out, nil
	}
	for i := range out {
		out[i] = int(int64(binary.LittleEndian.Uint64(d.b[d.off:])))
		d.off += 8
	}
	return out, nil
}

func (d *decoder) floats() ([]float64, error) {
	n, err := d.count(8)
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
		d.off += 8
	}
	return out, nil
}

func (d *decoder) blob() ([]byte, error) {
	n, err := d.count(1)
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, d.b[d.off:])
	d.off += n
	return out, nil
}
