package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stsk"
)

// seedRows is the row count of the plan the seeds' right-hand sides fit:
// grid2d at n = 16 is a 4×4 grid.
const seedRows = 16

// seedRHS is a JSON array of seedRows numbers whose first element is the
// token first.
func seedRHS(first string) string {
	return "[" + first + strings.Repeat(",1", seedRows-1) + "]"
}

// floatBodySeeds seed FuzzDecodeFloatBody and drive
// TestRouterSolveBodyAgreement. Each is read both as a solve body and as
// a values body.
var floatBodySeeds = func() []string {
	seeds := []string{
		"",
		"null",
		" \r\n\t",
		"[1,2]",
		`{}`,
		`{"plan":"p","b":[]}`,
		`{"values":[]}`,
		`{"plan":"p","b":null}`,
		`{"values":null,"ifVersion":3}`,
		`{"plan":"p","b":` + seedRHS("2") + `}`,
		`{"plan":"q","b":[1],"plan":"p","b":` + seedRHS("3") + `}`,
		`{"values":[1,2,3],"values":[4],"ifVersion":1,"ifVersion":2}`,
		`{"plan":"p","b":[5],"b":[]}`,
		`{"plan":"p","B":` + seedRHS("4") + `}`,
		`{"PLAN":"p","b":` + seedRHS("5") + `}`,
		`{"plan":"p","\u0062":` + seedRHS("6") + `}`,
		`{"plan":"p","\u0062":[1],"b\u0022":[2]}`,
		`{"valueſ":[1,2],"VALUES":[3]}`,
		`{"vALUES":[6],"valueſ":7}`,
		`{"plan":"p","b":` + seedRHS("6") + `} trailing`,
		`{"plan":"p","b":` + seedRHS("7") + `}{"plan":"x"}`,
		`{"plan":"p","b":` + seedRHS("null") + `}`,
		`{"values":[1,null]}`,
		`{"plan":"p","b":[1,"2"]}`,
		`{"values":[true]}`,
		`{"plan":"p","meta":{"a":[1,{"b":[null]}],"c":"}]\""},"b":` + seedRHS("8") + `}`,
		"{\"plan\":\"p\x01\",\"b\":" + seedRHS("9") + "}",
		"{\"plan\":\"p\",\"b\x01\":" + seedRHS("9") + "}",
		`{"plan":"p","upper":true,"variant":"ic0","timeoutMs":500,"b":` + seedRHS("1.5e-3") + `}`,
		`{"plan":"p","timeoutMs":1.5,"b":` + seedRHS("1") + `}`,
		`{"plan":"p","b":[1,2,]}`,
		`{"plan":"p" "b":[1]}`,
		`{"plan":"p","b":[1 2]}`,
		`{"plan":"p","b":[1],}`,
		`{"plan":"p","b":[1`,
		`{"plan":"p","b":` + seedRHS("1") + `,"x":"𝄞é"}`,
		`{"plan":"p","b":` + seedRHS("1") + `}`,
	}
	for _, num := range []string{"1e999", "-1e999", "1e-400", "-0", "01", ".5", "+1", "1.", "1e", "-", "Infinity", "NaN", "0x1p0", "1_0"} {
		seeds = append(seeds,
			`{"plan":"p","b":`+seedRHS(num)+`}`,
			`{"values":[`+num+`]}`)
	}
	return seeds
}()

// FuzzDecodeFloatBody holds decodeFloatBody to encoding/json: for every
// body, read as a solve request and as a values request, it must take
// the decision json.NewDecoder(bytes.NewReader(body)).Decode takes and,
// on acceptance, decode the same fields, floats equal bit for bit and
// nil only where encoding/json leaves nil. The one allowed disagreement
// is a null array element, which the decoder refuses and encoding/json
// reads as 0. The decoded values must also survive the body buffer being
// overwritten: nothing may alias it.
func FuzzDecodeFloatBody(f *testing.F) {
	for _, s := range floatBodySeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		buf := append([]byte(nil), body...)
		got, err := decodeSolve(buf)
		clear(buf)
		var want SolveRequest
		if sameDecision(t, body, err, json.NewDecoder(bytes.NewReader(body)).Decode(&want)) {
			if got.Plan != want.Plan || got.Upper != want.Upper || got.Variant != want.Variant ||
				got.TimeoutMs != want.TimeoutMs || !sameFloats(got.B, want.B) {
				t.Fatalf("solve body %q: decoded %+v, encoding/json %+v", body, got, want)
			}
		}

		buf = append(buf[:0], body...)
		var gotV, wantV UpdateValuesRequest
		err = decodeFloatBody(buf, "values", &gotV, &gotV.Values)
		clear(buf)
		if sameDecision(t, body, err, json.NewDecoder(bytes.NewReader(body)).Decode(&wantV)) {
			if gotV.IfVersion != wantV.IfVersion || !sameFloats(gotV.Values, wantV.Values) {
				t.Fatalf("values body %q: decoded %+v, encoding/json %+v", body, gotV, wantV)
			}
		}
	})
}

// sameDecision fails t unless the decoder's error err and encoding/json's
// refErr both accept or both refuse body, allowing only a refused null
// element against an accepting reference. It reports whether both
// accepted.
func sameDecision(t *testing.T, body []byte, err, refErr error) bool {
	t.Helper()
	switch {
	case err == nil && refErr != nil:
		t.Fatalf("body %q accepted; encoding/json refuses it: %v", body, refErr)
	case err != nil && refErr == nil && !errors.Is(err, errNullElement):
		t.Fatalf("body %q refused (%v); encoding/json accepts it", body, err)
	}
	return err == nil
}

// sameFloats reports whether a and b hold the same float64 bits and are
// nil together.
func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestReadBodyHint: a declared Content-Length sizes the body buffer only
// up to bodyHint, so a forged header cannot reserve more up front, and an
// honest one is read without regrowing the buffer; the cap still refuses
// a longer body.
func TestReadBodyHint(t *testing.T) {
	body := strings.Repeat("1", 1000)
	for _, c := range []struct {
		declared int64
		maxCap   int
	}{
		{1000, 1000 + bytes.MinRead},
		{1 << 40, bodyHint + bytes.MinRead},
		{-1, 4 * len(body)},
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body))
		req.ContentLength = c.declared
		got, err := readBody(httptest.NewRecorder(), req, maxSolveBody)
		if err != nil || string(got) != body {
			t.Fatalf("Content-Length %d: read %d bytes, %v", c.declared, len(got), err)
		}
		if cap(got) > c.maxCap {
			t.Errorf("Content-Length %d: buffer capacity %d, want at most %d", c.declared, cap(got), c.maxCap)
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body))
	var tooLarge *http.MaxBytesError
	if _, err := readBody(httptest.NewRecorder(), req, 999); !errors.As(err, &tooLarge) {
		t.Fatalf("body over the cap: %v, want *http.MaxBytesError", err)
	}
}

// BenchmarkDecodeFloatBody compares the decoder with encoding/json on
// bodies the size of stskbench's http-update traffic: an 8,000-row
// right-hand side of full-precision floats (about 158 KB) and the 53,600
// values of the grid3d matrix at n = 8,000 (about 161 KB).
func BenchmarkDecodeFloatBody(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	rhs := make([]float64, 8000)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	mat, err := stsk.Generate("grid3d", 8000)
	if err != nil {
		b.Fatal(err)
	}
	solve, err := json.Marshal(SolveRequest{Plan: "p", B: rhs})
	if err != nil {
		b.Fatal(err)
	}
	values, err := json.Marshal(UpdateValuesRequest{Values: mat.Values(), IfVersion: 1})
	if err != nil {
		b.Fatal(err)
	}
	run := func(name string, body []byte, decode func() error) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if err := decode(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("solve/encoding-json", solve, func() error {
		var req SolveRequest
		return json.NewDecoder(bytes.NewReader(solve)).Decode(&req)
	})
	run("solve/scanner", solve, func() error {
		_, err := decodeSolve(solve)
		return err
	})
	run("values/encoding-json", values, func() error {
		var req UpdateValuesRequest
		return json.NewDecoder(bytes.NewReader(values)).Decode(&req)
	})
	run("values/scanner", values, func() error {
		var req UpdateValuesRequest
		return decodeFloatBody(values, "values", &req, &req.Values)
	})
}
