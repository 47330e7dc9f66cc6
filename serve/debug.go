package serve

import (
	"errors"
	"math"
	"net/http"
	"strconv"
	"time"
)

// traceDoc is the GET /debug/traces response: ring bookkeeping plus the
// retained slow traces, newest first.
type traceDoc struct {
	Enabled     bool       `json:"enabled"`
	Capacity    int        `json:"capacity"`
	Retained    int        `json:"retained"`
	Admitted    uint64     `json:"admitted"`
	ThresholdMs float64    `json:"thresholdMs"`
	Traces      []traceRec `json:"traces"`
}

// traceRec is one retained trace: identity, outcome, and the per-stage
// breakdown with offsets from request admission.
type traceRec struct {
	ID      string      `json:"id"`
	Plan    string      `json:"plan,omitempty"`
	Outcome string      `json:"outcome"`
	Start   time.Time   `json:"start"`
	TotalMs float64     `json:"totalMs"`
	Dropped int         `json:"droppedSpans,omitempty"`
	Spans   []traceSpan `json:"spans"`
}

// traceSpan is one stage interval, microsecond-resolution offsets from
// the trace's admission stamp.
type traceSpan struct {
	Stage      string  `json:"stage"`
	OffsetUs   float64 `json:"offsetUs"`
	DurationUs float64 `json:"durationUs"`
}

// handleTraces serves the slow-trace ring: every retained trace whose
// end-to-end latency is at least ?thresholdMs= (default 0, i.e. all
// retained traces), newest first, with its span breakdown. The ring only
// admits traces at least Config.TraceSlow long in the first place;
// thresholdMs filters further at read time.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	thresholdMs := 0.0
	if q := r.URL.Query().Get("thresholdMs"); q != "" {
		v, err := strconv.ParseFloat(q, 64)
		if err != nil || v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			writeError(w, http.StatusBadRequest, errors.New("thresholdMs must be a finite non-negative number"), 0)
			return
		}
		thresholdMs = v
	}
	ring := s.reg.TraceRing()
	recs := ring.Snapshot(msDuration(thresholdMs))
	doc := traceDoc{
		Enabled:     true,
		Capacity:    ring.Cap(),
		Retained:    ring.Len(),
		Admitted:    ring.Admitted(),
		ThresholdMs: thresholdMs,
		Traces:      make([]traceRec, 0, len(recs)),
	}
	for _, rec := range recs {
		tr := traceRec{
			ID:      rec.ID,
			Plan:    rec.Plan,
			Outcome: rec.Outcome,
			Start:   rec.Start,
			TotalMs: float64(rec.Total.Microseconds()) / 1000,
			Dropped: rec.Dropped,
			Spans:   make([]traceSpan, 0, len(rec.Spans)),
		}
		for _, sp := range rec.Spans {
			tr.Spans = append(tr.Spans, traceSpan{
				Stage:      sp.Stage.String(),
				OffsetUs:   float64(sp.Start) / 1e3,
				DurationUs: float64(sp.End-sp.Start) / 1e3,
			})
		}
		doc.Traces = append(doc.Traces, tr)
	}
	writeJSON(w, http.StatusOK, doc)
}
