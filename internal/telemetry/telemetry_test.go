package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

// withTelemetry runs f with telemetry enabled, restoring the prior state.
func withTelemetry(t *testing.T, f func()) {
	t.Helper()
	was := On()
	SetEnabled(true)
	defer SetEnabled(was)
	f()
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram("test.boundaries")
	withTelemetry(t, func() {
		// Bucket i holds values of bit length i: 0 -> bucket 0, 1 -> 1,
		// [2,3] -> 2, [4,7] -> 3, ..., and the powers of two are the lower
		// edges of their buckets.
		for _, v := range []uint64{0, 1, 2, 3, 4, 7, 8, 1 << 20, math.MaxUint64} {
			h.Record(v)
		}
	})
	s := h.snapshot()
	if s.Count != 9 {
		t.Fatalf("count = %d, want 9", s.Count)
	}
	want := map[int]uint64{0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 21: 1, 64: 1}
	for i, n := range s.Buckets {
		if n != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
	if len(s.Buckets) != 65 {
		t.Fatalf("MaxUint64 must land in bucket 64 (got %d buckets)", len(s.Buckets))
	}
	if got := BucketMax(3); got != 7 {
		t.Fatalf("BucketMax(3) = %d, want 7", got)
	}
	if got := BucketMax(64); got != math.MaxUint64 {
		t.Fatalf("BucketMax(64) = %d, want MaxUint64", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram("test.quantile")
	withTelemetry(t, func() {
		for i := 0; i < 90; i++ {
			h.Record(3) // bucket 2, max 3
		}
		for i := 0; i < 10; i++ {
			h.Record(1000) // bucket 10, max 1023
		}
	})
	s := h.snapshot()
	if got := s.Quantile(0.5); got != 3 {
		t.Fatalf("p50 = %d, want 3", got)
	}
	if got := s.Quantile(0.99); got != 1023 {
		t.Fatalf("p99 = %d, want 1023 (the tail bucket's max)", got)
	}
	if got := (Hist{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty-hist quantile = %d, want 0", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := Hist{Count: 2, Sum: 5, Buckets: []uint64{1, 0, 1}}
	b := Hist{Count: 3, Sum: 30, Buckets: []uint64{0, 1, 1, 0, 1}}
	a.merge(b)
	if a.Count != 5 || a.Sum != 35 {
		t.Fatalf("merged count/sum = %d/%d, want 5/35", a.Count, a.Sum)
	}
	want := []uint64{1, 1, 2, 0, 1}
	for i, n := range want {
		if a.Buckets[i] != n {
			t.Fatalf("merged buckets = %v, want %v", a.Buckets, want)
		}
	}
}

func TestConcurrentRecord(t *testing.T) {
	c := NewCounter("test.concurrent")
	h := NewHistogram("test.concurrent_hist")
	before, beforeHist := c.Load(), h.snapshot().Count
	withTelemetry(t, func() {
		const workers, per = 8, 1000
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					c.Inc()
					h.Record(uint64(i))
					RecordEvent(EvStall, uint64(w), uint64(i))
				}
			}(w)
		}
		wg.Wait()
		if got := c.Load() - before; got != workers*per {
			t.Fatalf("counter = %d after %d concurrent Incs", got, workers*per)
		}
		if got := h.snapshot().Count - beforeHist; got != workers*per {
			t.Fatalf("histogram count = %d after %d concurrent Records", got, workers*per)
		}
	})
}

func TestRegistryIdempotent(t *testing.T) {
	a := NewCounter("test.shared")
	b := NewCounter("test.shared")
	if a != b {
		t.Fatalf("two registrations of one name returned distinct counters")
	}
	if NewHistogram("test.sharedh") != NewHistogram("test.sharedh") {
		t.Fatalf("two registrations of one name returned distinct histograms")
	}
}

func TestFlightRecorderOverwrite(t *testing.T) {
	withTelemetry(t, func() {
		// Overfill the ring: only the newest ringSlots events survive, and a
		// tail request returns the last EventTail of those, oldest first.
		for i := 0; i < ringSlots+50; i++ {
			RecordEvent(EvReconnect, uint64(i), 0)
		}
		tail := eventTail(EventTail)
		if len(tail) != EventTail {
			t.Fatalf("tail has %d events, want %d", len(tail), EventTail)
		}
		last := tail[len(tail)-1]
		if last.Kind != EvReconnect.String() {
			t.Fatalf("last event kind %q, want %q", last.Kind, EvReconnect)
		}
		for i := 1; i < len(tail); i++ {
			if tail[i].A != tail[i-1].A+1 {
				t.Fatalf("tail not in order at %d: %d after %d", i, tail[i].A, tail[i-1].A)
			}
		}
	})
}

func TestSnapshotMergeAndJSONRoundTrip(t *testing.T) {
	a := Snapshot{Rank: 0, Ranks: 1,
		Counters: map[string]uint64{"net.retransmits": 3},
		Hists:    map[string]Hist{"net.window": {Count: 2, Sum: 9, Buckets: []uint64{0, 1, 1}}},
		Events:   []Event{{T: 10, Kind: "net.reconnect", A: 1}},
	}
	b := Snapshot{Rank: 1, Ranks: 1,
		Counters: map[string]uint64{"net.retransmits": 2, "fault.reset": 5},
		Events:   []Event{{T: 5, Kind: "fault.reset", A: 7}},
	}
	agg := Snapshot{Rank: -1}
	agg.Merge(a)
	agg.Merge(b)
	if agg.Ranks != 2 || agg.Counters["net.retransmits"] != 5 || agg.Counters["fault.reset"] != 5 {
		t.Fatalf("bad aggregate: %+v", agg)
	}
	if agg.Events[0].T != 5 || agg.Events[0].Rank != 1 || agg.Events[1].Rank != 0 {
		t.Fatalf("merged events not time-ordered and rank-stamped: %+v", agg.Events)
	}
	line := agg.JSON()
	if bytes.ContainsRune(line, '\n') {
		t.Fatalf("snapshot JSON must be one line: %q", line)
	}
	back, err := ParseSnapshot(line)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if back.Ranks != 2 || back.Counters["net.retransmits"] != 5 ||
		back.Hists["net.window"].Count != 2 || len(back.Events) != 2 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestCaptureSkipsZeroMetrics(t *testing.T) {
	NewCounter("test.never_touched")
	s := Capture(3)
	if _, ok := s.Counters["test.never_touched"]; ok {
		t.Fatalf("zero counter leaked into the snapshot")
	}
	if s.Rank != 3 {
		t.Fatalf("rank = %d, want 3", s.Rank)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("capture not marshalable: %v", err)
	}
}

// TestDisabledZeroAlloc is the CI bench gate (ISSUE 10): with telemetry
// disabled — the default — every hot-path entry point must cost zero
// allocations, so instrumented transports keep their existing allocs/op
// guards without build tags. The enabled paths are zero-alloc too.
func TestDisabledZeroAlloc(t *testing.T) {
	c := NewCounter("test.zeroalloc")
	h := NewHistogram("test.zeroalloc_hist")
	var nilC *Counter
	var nilH *Histogram
	check := func(name string, f func()) {
		t.Helper()
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
	was := On()
	defer SetEnabled(was)
	SetEnabled(false)
	check("disabled Counter.Add", func() { c.Add(2) })
	check("disabled Histogram.Record", func() { h.Record(7) })
	check("disabled RecordEvent", func() { RecordEvent(EvRetransmit, 1, 2) })
	check("nil Counter.Add", func() { nilC.Add(1) })
	check("nil Histogram.Record", func() { nilH.Record(1) })
	SetEnabled(true)
	check("enabled Counter.Add", func() { c.Add(2) })
	check("enabled Histogram.Record", func() { h.Record(7) })
	check("enabled RecordEvent", func() { RecordEvent(EvRetransmit, 1, 2) })
}

// TestCaptureOffCountsNoRank: a capture taken with telemetry off — a DUMP
// answered by a rank that does not measure — names its rank but counts as no
// measured rank, so an aggregate of such captures publishes nothing.
func TestCaptureOffCountsNoRank(t *testing.T) {
	was := On()
	defer SetEnabled(was)
	SetEnabled(false)
	off := Capture(2)
	if off.Rank != 2 || off.Ranks != 0 {
		t.Fatalf("capture with telemetry off: rank %d, ranks %d; want rank 2, ranks 0", off.Rank, off.Ranks)
	}
	agg := Snapshot{Rank: -1}
	agg.Merge(off)
	if agg.Ranks != 0 {
		t.Fatalf("an aggregate of unmeasured captures counts %d ranks, want 0 (Publish would print it)", agg.Ranks)
	}
	SetEnabled(true)
	if on := Capture(2); on.Ranks != 1 {
		t.Fatalf("capture with telemetry on counts %d ranks, want 1", on.Ranks)
	}
}
