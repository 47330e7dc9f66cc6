package main

import (
	"bufio"
	"cmp"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op; Parent is the ID of the enclosing span, -1 for the
// operation's root. Times are nanoseconds since the tracer started.
type span struct {
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced window's spans in memory; they are written out
// when the run ends. Every method is a no-op on a nil tracer, so untraced
// windows pay one nil check per call site.
type tracer struct {
	base  time.Time
	ops   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)}
}

// newOp returns a fresh operation ID.
func (t *tracer) newOp() int64 {
	if t == nil {
		return -1
	}
	return t.ops.Add(1) - 1
}

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(op int64, parent int, name string, start time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: start.Sub(t.base).Nanoseconds()})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = end.Sub(t.base).Nanoseconds()
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(op int64, parent int, name string, start, end time.Time) {
	t.end(t.begin(op, parent, name, start), end)
}

// durations returns the lengths of every finished span with the given
// name, in milliseconds.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// childFree returns, for every finished span named parent, its duration
// minus the part covered by its children named child, in milliseconds.
func (t *tracer) childFree(parent, child string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := map[int]int64{}
	for _, s := range t.spans {
		if s.Name == child && s.Parent >= 0 && s.End > 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == parent && s.End > 0 {
			out = append(out, float64(s.End-s.Start-covered[s.ID])/1e6)
		}
	}
	return out
}

// layerRow is one layer's mean self time per operation.
type layerRow struct {
	Layer  string  `json:"layer"`
	SelfMs float64 `json:"self_ms_mean"`
	Share  float64 `json:"share"`
}

// opSummary is the self-time breakdown of one kind of operation (the name
// of its root span). Its layer rows sum to the operation's mean latency
// when every child span lies inside its parent and siblings do not overlap.
type opSummary struct {
	Op       string     `json:"op"`
	Count    int        `json:"count"`
	OpMs     float64    `json:"op_ms_mean"`
	Layers   []layerRow `json:"layers"`
	LayersMs float64    `json:"layers_sum_ms"`
	Ratio    float64    `json:"layers_sum_ratio"`
}

// summarize computes each span's self time — its duration minus the union
// of its children's intervals within it — and averages it per layer over
// the finished operations of each kind.
func (t *tracer) summarize() []opSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	byOp := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	type acc struct {
		count int
		opNs  int64
		self  map[string]int64
		order []string
	}
	kinds := map[string]*acc{}
	var kindOrder []string
	for _, spans := range byOp {
		root := -1
		finished := true
		for i, s := range spans {
			if s.Parent < 0 {
				root = i
			}
			finished = finished && s.End > 0
		}
		if root < 0 || !finished {
			continue
		}
		name := spans[root].Name
		a := kinds[name]
		if a == nil {
			a = &acc{self: map[string]int64{}}
			kinds[name] = a
			kindOrder = append(kindOrder, name)
		}
		a.count++
		a.opNs += spans[root].End - spans[root].Start
		for _, s := range spans {
			if _, seen := a.self[s.Name]; !seen {
				a.order = append(a.order, s.Name)
			}
			a.self[s.Name] += s.End - s.Start - coveredBy(s, children[s.ID])
		}
	}
	slices.Sort(kindOrder)
	out := make([]opSummary, 0, len(kinds))
	for _, name := range kindOrder {
		a := kinds[name]
		sum := opSummary{Op: name, Count: a.count, OpMs: float64(a.opNs) / 1e6 / float64(a.count)}
		for _, layer := range a.order {
			ms := float64(a.self[layer]) / 1e6 / float64(a.count)
			sum.Layers = append(sum.Layers, layerRow{Layer: layer, SelfMs: ms, Share: ms / sum.OpMs})
			sum.LayersMs += ms
		}
		sum.Ratio = sum.LayersMs / sum.OpMs
		out = append(out, sum)
	}
	return out
}

// coveredBy is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredBy(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, curLo, curHi int64
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		default:
			curHi = max(curHi, x[1])
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// selfSumRatio is the count-weighted ratio of summed layer self times to
// operation latency over every kind of operation; 1 means the layers
// account for all of it.
func selfSumRatio(sums []opSummary) float64 {
	var layers, ops float64
	for _, s := range sums {
		layers += s.LayersMs * float64(s.Count)
		ops += s.OpMs * float64(s.Count)
	}
	if ops == 0 {
		return 0
	}
	return layers / ops
}

// write stores the spans (gzipped JSON lines) and the self-time summary,
// with the serving stage breakdowns, for one traced run.
func (t *tracer) write(dir, workload string, seed int64, sums []opSummary, breakdown map[string]map[string]float64) error {
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	f, err := os.Create(stem + ".spans.jsonl.gz")
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	raw, err := json.MarshalIndent(map[string]any{"self_time": sums, "breakdown": breakdown}, "", "  ")
	if err != nil {
		return fmt.Errorf("write summary: %w", err)
	}
	if err := os.WriteFile(stem+".summary.json", append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("write summary: %w", err)
	}
	return nil
}
