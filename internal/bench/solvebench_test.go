package bench

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"time"
)

// shrinkBenchDuration makes the wall-clock sampling loops finish after a
// single op so the smoke test exercises every cell cheaply.
func shrinkBenchDuration(t *testing.T) {
	t.Helper()
	old := benchMinDuration
	benchMinDuration = time.Nanosecond
	t.Cleanup(func() { benchMinDuration = old })
}

func TestSolveBenchSmoke(t *testing.T) {
	shrinkBenchDuration(t)
	var buf bytes.Buffer
	r := New(200, &buf)
	report, err := r.SolveBench()
	if err != nil {
		t.Fatal(err)
	}
	// 2 matrices × 4 methods × (3 schedules + 4 panel widths).
	if want := 2 * 4 * 7; len(report.Results) != want {
		t.Fatalf("got %d cells, want %d", len(report.Results), want)
	}
	var sawGraph bool
	widths := map[string][]int{} // matrix/method → its block cells' widths, in order
	for _, res := range report.Results {
		if res.NsPerOp <= 0 || res.SolvesPerSec <= 0 {
			t.Fatalf("%s/%s/%s: non-positive timing %v", res.Matrix, res.Method, res.Schedule, res)
		}
		if res.N <= 0 || res.NNZ <= 0 {
			t.Fatalf("%s/%s/%s: empty matrix", res.Matrix, res.Method, res.Schedule)
		}
		switch res.Schedule {
		case "graph":
			sawGraph = true
			if res.Tasks <= 0 {
				t.Fatalf("graph cell %s/%s missing DAG size", res.Matrix, res.Method)
			}
		case "block":
			if res.NRHS != 32 {
				t.Fatalf("block cell has nrhs %d, want 32", res.NRHS)
			}
			key := res.Matrix + "/" + res.Method
			widths[key] = append(widths[key], res.Width)
		}
	}
	if !sawGraph || len(widths) != 2*4 {
		t.Fatalf("missing cells: graph=%v, block cells for %d matrix/method pairs, want 8", sawGraph, len(widths))
	}
	for key, ws := range widths {
		if !slices.Equal(ws, []int{1, 2, 4, 8}) {
			t.Fatalf("%s: block cells have widths %v, want [1 2 4 8]", key, ws)
		}
	}
	if !strings.Contains(buf.String(), "grid3d") {
		t.Fatal("human-readable table missing matrix rows")
	}
}

func TestWriteSolveBenchJSONRoundTrips(t *testing.T) {
	shrinkBenchDuration(t)
	r := New(150, &bytes.Buffer{})
	var out bytes.Buffer
	if err := r.WriteSolveBenchJSON(&out); err != nil {
		t.Fatal(err)
	}
	var report SolveBenchReport
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if report.Scale != 150 || len(report.Results) == 0 || report.CPUs <= 0 {
		t.Fatalf("bad report header: %+v", report)
	}
}

func TestSolveBenchMatrixClasses(t *testing.T) {
	for _, class := range []string{"grid3d", "trimesh"} {
		mat, err := solveBenchMatrix(class, 300)
		if err != nil {
			t.Fatal(err)
		}
		if mat.N <= 0 || mat.N > 300 {
			t.Fatalf("%s: n=%d out of range", class, mat.N)
		}
	}
	if _, err := solveBenchMatrix("bogus", 300); err == nil {
		t.Fatal("unknown class accepted")
	}
}
