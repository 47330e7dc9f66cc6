package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fullImage is a small image exercising every section, including the
// optional ones (meta blob, aux values).
func fullImage() *Image {
	return &Image{
		Method:       2,
		N:            3,
		ValueVersion: 7,
		Perm:         []int{2, 0, 1},
		RowPtr:       []int{0, 1, 3, 6},
		Col:          []int{0, 0, 1, 0, 1, 2},
		Val:          []float64{1, 0.5, 2, 0.25, 0.75, 4},
		SuperPtr:     []int{0, 1, 3},
		PackPtr:      []int{0, 1, 2},
		Meta:         []byte(`{"spec":"x"}`),
		AuxVals:      []float64{1, 2, 3, 4, 5, 6},
	}
}

// minImage leaves every optional section absent.
func minImage() *Image {
	img := fullImage()
	img.Meta, img.AuxVals = nil, nil
	return img
}

func encode(t *testing.T, img *Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		img  *Image
	}{
		{"full", fullImage()},
		{"minimal", minImage()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Read(bytes.NewReader(encode(t, tc.img)))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.img) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tc.img)
			}
		})
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.snap")
	img := fullImage()
	if err := WriteFile(path, img); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, img) {
		t.Fatal("file round trip mismatch")
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.snap")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want os.ErrNotExist", err)
	}
}

// TestTruncation cuts a valid encoding at every possible length: each
// prefix must be refused with an error, never decoded and never panic.
func TestTruncation(t *testing.T) {
	raw := encode(t, fullImage())
	for cut := 0; cut < len(raw); cut++ {
		if _, err := Read(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(raw))
		}
	}
}

// TestCorruption flips every byte in turn: any single-byte corruption
// must be refused (the CRC covers the payload; the header fields are
// each validated), never panic. Flips inside the 8-byte CRC field
// itself are also refused — the CRC then disagrees with the payload.
func TestCorruption(t *testing.T) {
	raw := encode(t, fullImage())
	for i := 0; i < len(raw); i++ {
		if (i >= 12 && i < 16) || (i >= 28 && i < 32) {
			continue // reserved header bytes, not semantically load-bearing
		}
		for _, bit := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), raw...)
			mut[i] ^= bit
			if img, err := Read(bytes.NewReader(mut)); err == nil {
				t.Fatalf("corrupt byte %d (bit %#x) accepted: %+v", i, bit, img)
			}
		}
	}
}

func TestTrailingGarbage(t *testing.T) {
	raw := append(encode(t, fullImage()), 0xde, 0xad)
	// Trailing bytes beyond the framed payload are ignored by a stream
	// reader (payloadLen frames the image), but garbage INSIDE the frame
	// is not: extend the payload without fixing the header.
	if _, err := Read(bytes.NewReader(raw)); err != nil {
		t.Fatalf("framed read with trailing stream bytes: %v", err)
	}
}

// TestVersionSkew stamps other format versions into a valid file: a
// future one, version 1, whose files carried a task DAG, and version 2,
// whose files carried the source matrix's pattern, neither of which this
// build reads. Both read paths refuse each with ErrVersion.
func TestVersionSkew(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.snap")
	for _, v := range []uint32{0xff, 1, 2} {
		raw := encode(t, fullImage())
		binary.LittleEndian.PutUint32(raw[8:12], v)
		if _, err := Read(bytes.NewReader(raw)); !errors.Is(err, ErrVersion) {
			t.Fatalf("version %d: err = %v, want ErrVersion", v, err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFile(path); !errors.Is(err, ErrVersion) {
			t.Fatalf("version %d file: err = %v, want ErrVersion", v, err)
		}
	}
}

func TestBadMagic(t *testing.T) {
	raw := encode(t, fullImage())
	raw[0] = 'X'
	if _, err := Read(bytes.NewReader(raw)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("bad magic: err = %v, want ErrInvalid", err)
	}
}

// TestHugeCountRefused forges a section count far past the payload: the
// decoder must refuse before allocating, not OOM or panic.
func TestHugeCountRefused(t *testing.T) {
	img := minImage()
	raw := encode(t, img)
	// The first section after the fixed meta block is Perm's count
	// (u64). Overwrite it with a huge value and re-stamp the CRC so only
	// the count check can refuse it.
	payload := raw[headerSize:]
	for i := 0; i < 8; i++ {
		payload[metaSize+i] = 0xff
	}
	restamp(raw)
	if _, err := Read(bytes.NewReader(raw)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("huge count: err = %v, want ErrInvalid", err)
	}
}

// restamp recomputes the header CRC over a mutated payload.
func restamp(raw []byte) {
	c := crc32.Checksum(raw[headerSize:], crcTable)
	binary.LittleEndian.PutUint32(raw[24:28], c)
}
