package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. Times are nanoseconds since the tracer was
// created. Calls > 1 marks a span that wraps a group of identical calls
// (sub-2µs ops are timed in groups so the timer does not dominate them).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 at top level
	Op     int64  `json:"op"`     // identifier shared by the spans of one op
	Calls  int32  `json:"calls"`
}

// maxStoredSpans bounds the spans kept for the trace file; the per-name
// aggregates below cover every span regardless.
const maxStoredSpans = 60000

// tracer keeps spans in memory and aggregates per-call durations by name. A
// span's self time — its duration minus the part its child spans cover — is
// left to the reader of the trace file, which has every parent link.
type tracer struct {
	t0      time.Time
	spans   []span
	stack   []openSpan
	nextOp  int64
	dropped int64 // spans past the cap: aggregated, not stored
	// agg is keyed by (enclosing span's name, name): core.Win.Put under a
	// "put" op and under a "bw" op are different rows.
	agg map[[2]string][]float64
}

type openSpan struct {
	name   string
	start  int64
	calls  int32
	stored int32 // index in spans, -1 when past the cap
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), agg: map[[2]string][]float64{}}
}

// begin opens a span covering calls identical calls.
func (t *tracer) begin(name string, calls int) {
	if len(t.stack) == 0 {
		t.nextOp++
	}
	o := openSpan{name: name, calls: int32(calls), stored: -1}
	if len(t.spans) < maxStoredSpans {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].stored
		}
		o.stored = int32(len(t.spans))
		t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.nextOp, Calls: int32(calls)})
	} else {
		t.dropped++
	}
	t.stack = append(t.stack, o)
	t.stack[len(t.stack)-1].start = int64(time.Since(t.t0))
}

// end closes the innermost open span.
func (t *tracer) end() {
	now := int64(time.Since(t.t0))
	n := len(t.stack) - 1
	o := t.stack[n]
	t.stack = t.stack[:n]
	key := [2]string{"", o.name}
	if n > 0 {
		key[0] = t.stack[n-1].name
	}
	if o.stored >= 0 {
		t.spans[o.stored].Start, t.spans[o.stored].End = o.start, now
	}
	t.agg[key] = append(t.agg[key], float64(now-o.start)/float64(o.calls))
}

// med returns the median per-call duration of span name under parent ("" at
// top level); 0 if there is none.
func (t *tracer) med(parent, name string) float64 {
	return median(t.agg[[2]string{parent, name}])
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string             `json:"workload"`
	Env      envHeader          `json:"env"`
	Spans    []span             `json:"spans"`
	Dropped  int64              `json:"spans_not_stored"`
	Layers   []layerRow         `json:"layers"`
	Metrics  map[string]float64 `json:"metrics"`
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
