// Package telemetry is the runtime observability substrate shared by every
// transport backend (DESIGN.md §13): sharded atomic counters, fixed-bucket
// log2 histograms, and a lock-free per-process ring-buffer flight recorder
// of timestamped typed events. All hot-path entry points are zero-alloc and
// compile down to one atomic load when telemetry is disabled (the default),
// so instrumented code needs no build tags and no call-site guards.
//
// Telemetry is enabled by FOMPI_STATS (or `fompi-run -stats`, which sets it
// so worker processes inherit it). A snapshot leaves a process one way, as
// one Snapshot shape:
//
//   - in a process world — mp, net, hybrid — as a STATS line on the rank's
//     control stream (internal/rankio), at teardown and whenever the
//     coordinator asks with DUMP; the coordinator prints each, keeps every
//     rank's latest and merges them once at world end (Publish),
//   - in an in-process world, as one capture of the shared registry
//     (Publish; FOMPI_STATS_OUT writes the aggregate to a file).
//
// Metrics are registered by name at package init of the instrumented
// packages; registration is idempotent, so two call sites naming the same
// metric share it.
package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

const (
	// EnvVar enables telemetry when set non-empty (and not "0"); worker
	// processes inherit it from the launcher, like FOMPI_FAULTS.
	EnvVar = "FOMPI_STATS"
	// EnvOut names a file the world's aggregated snapshot is written to (one
	// line of JSON, see Publish); empty prints it to stderr.
	EnvOut = "FOMPI_STATS_OUT"
)

// enabled is the single hot-path gate: every Record/Add/RecordEvent loads it
// first and returns when unset, so disabled-mode cost is one atomic load and
// a branch (gated at 0 allocs/op by the bench check in telemetry_test.go).
var enabled atomic.Bool

func init() {
	if v := os.Getenv(EnvVar); v != "" && v != "0" {
		enabled.Store(true)
	}
}

// On reports whether telemetry is enabled. Instrumentation that must do
// extra work beyond a metric call (e.g. stamping a send time) checks it
// explicitly; plain metric calls need not — they gate internally.
func On() bool { return enabled.Load() }

// SetEnabled flips telemetry at runtime (tests, and launchers that resolve
// their -stats flag after init).
func SetEnabled(v bool) { enabled.Store(v) }

// ---- counters ----

// counterShards spreads concurrent Add traffic across cache lines; a power
// of two so the shard pick is a mask.
const counterShards = 8

// Counter is a sharded monotonic counter: each shard owns a cache line, and
// Add picks a shard from the caller's stack address — goroutines land on
// different lines without any per-goroutine state.
type Counter struct {
	name   string
	shards [counterShards]struct {
		v atomic.Uint64
		_ [56]byte // pad to a cache line
	}
}

// Add adds n. Nil receivers and disabled telemetry are no-ops.
func (c *Counter) Add(n uint64) {
	if c == nil || !enabled.Load() {
		return
	}
	var probe byte
	i := (uintptr(unsafe.Pointer(&probe)) >> 10) & (counterShards - 1)
	c.shards[i].v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Load folds the shards into the counter's current value.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	var sum uint64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return sum
}

// ---- histograms ----

// histBuckets is bits.Len64's range: bucket i counts values whose bit
// length is i, i.e. bucket 0 holds exactly 0 and bucket i>0 holds
// [2^(i-1), 2^i).
const histBuckets = 65

// Histogram is a fixed-bucket log2 histogram. Record is wait-free (two
// atomic adds); precision is one power of two per bucket, which is what
// latency and occupancy distributions need at zero allocation cost.
type Histogram struct {
	name string
	sum  atomic.Uint64
	b    [histBuckets]atomic.Uint64
}

// Record records one observation. Nil receivers and disabled telemetry are
// no-ops.
func (h *Histogram) Record(v uint64) {
	if h == nil || !enabled.Load() {
		return
	}
	h.sum.Add(v)
	h.b[bits.Len64(v)].Add(1)
}

// snapshot folds the buckets into a Hist (trailing zero buckets trimmed).
func (h *Histogram) snapshot() Hist {
	var s Hist
	last := -1
	var buckets [histBuckets]uint64
	for i := range h.b {
		n := h.b[i].Load()
		buckets[i] = n
		s.Count += n
		if n > 0 {
			last = i
		}
	}
	s.Sum = h.sum.Load()
	if last >= 0 {
		s.Buckets = append([]uint64(nil), buckets[:last+1]...)
	}
	return s
}

// Hist is a histogram snapshot: Buckets[i] counts values of bit length i
// (see histBuckets), trailing zeros trimmed.
type Hist struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

// BucketMax returns the largest value bucket i can hold.
func BucketMax(i int) uint64 {
	switch {
	case i <= 0:
		return 0
	case i >= 64:
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]): the max
// of the bucket where the cumulative count crosses q·Count.
func (h Hist) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	want := uint64(q * float64(h.Count))
	if want >= h.Count {
		want = h.Count - 1
	}
	var cum uint64
	for i, n := range h.Buckets {
		cum += n
		if cum > want {
			return BucketMax(i)
		}
	}
	return BucketMax(len(h.Buckets) - 1)
}

// merge folds o into h bucket-wise.
func (h *Hist) merge(o Hist) {
	h.Count += o.Count
	h.Sum += o.Sum
	for len(h.Buckets) < len(o.Buckets) {
		h.Buckets = append(h.Buckets, 0)
	}
	for i, n := range o.Buckets {
		h.Buckets[i] += n
	}
}

// ---- the flight recorder ----

// EventKind is the type tag of one flight-recorder event. Faults and the
// recoveries they provoke share the stream, so a post-mortem tail reads as
// cause → effect.
type EventKind uint8

const (
	EvNone         EventKind = iota
	EvFaultReset             // faultnet tripped a connection reset; a=conn id, b=op count
	EvFaultDrop              // faultnet dropped a write; a=conn id, b=bytes
	EvFaultDelay             // faultnet delayed a write; a=conn id, b=delay ns
	EvFaultPartial           // faultnet tore a write in two; a=conn id, b=bytes
	EvFaultDial              // faultnet refused a dial; a=attempt number
	EvReconnect              // netrun lost a peer mid-window and is resuming; a=peer rank, b=head seq
	EvRetransmit             // netrun retransmitted an in-flight frame; a=peer rank, b=seq
	EvDedupHit               // owner served a replayed seq from the session cache; a=src rank, b=seq
	EvStall                  // the pacing stall valve released a rank; a=rank, b=its lead over the folded minimum (ns)
	EvRankFail               // a RANKFAIL verdict arrived; a=blamed rank
	EvAbort                  // this process observed the world abort
)

var kindNames = [...]string{
	"", "fault.reset", "fault.drop", "fault.delay", "fault.partial",
	"fault.dial", "net.reconnect", "net.retransmit", "net.dedup_hit",
	"pace.stall", "rankfail", "abort",
}

func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// ringSlots sizes the flight recorder (a power of two); older events are
// overwritten in place.
const ringSlots = 256

// EventTail is how many trailing events Capture includes in a snapshot —
// the "last N events" that ride the stats frame to the coordinator.
const EventTail = 32

// ringSlot holds one event as four independently-atomic words. A reader
// racing the cursor's wrap can observe a torn event (fields from two
// writes); that is acceptable by design — the recorder is a post-mortem
// diagnostic, and word-atomicity keeps it exact under -race where a plain
// write would be a data race.
type ringSlot struct {
	t, kind, a, b atomic.Uint64
}

var ring struct {
	cur   atomic.Uint64
	slots [ringSlots]ringSlot
}

// RecordEvent appends one typed event to the flight recorder: a cursor
// fetch-add claims a slot, four atomic stores fill it. Zero-alloc,
// lock-free, and a single atomic load when disabled.
func RecordEvent(kind EventKind, a, b uint64) {
	if !enabled.Load() {
		return
	}
	i := ring.cur.Add(1) - 1
	s := &ring.slots[i&(ringSlots-1)]
	s.t.Store(uint64(time.Now().UnixNano()))
	s.kind.Store(uint64(kind))
	s.a.Store(a)
	s.b.Store(b)
}

// Event is one decoded flight-recorder entry. Rank is 0 in a per-rank
// snapshot (the enclosing Snapshot names the rank) and is stamped during
// aggregation so merged tails stay attributable.
type Event struct {
	Rank int    `json:"rank,omitempty"`
	T    int64  `json:"t"` // unix nanoseconds
	Kind string `json:"kind"`
	A    uint64 `json:"a,omitempty"`
	B    uint64 `json:"b,omitempty"`
}

// eventTail decodes the recorder's last n events, oldest first.
func eventTail(n int) []Event {
	cur := ring.cur.Load()
	if cur == 0 {
		return nil
	}
	avail := cur
	if avail > ringSlots {
		avail = ringSlots
	}
	if uint64(n) < avail {
		avail = uint64(n)
	}
	out := make([]Event, 0, avail)
	for i := cur - avail; i < cur; i++ {
		s := &ring.slots[i&(ringSlots-1)]
		k := EventKind(s.kind.Load())
		if k == EvNone {
			continue // claimed but not yet (or never) filled
		}
		out = append(out, Event{T: int64(s.t.Load()), Kind: k.String(), A: s.a.Load(), B: s.b.Load()})
	}
	return out
}

// ---- the registry ----

var registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewCounter returns the counter registered under name, creating it on
// first use. Registration is idempotent: call sites that instrument the same
// logical metric share one counter by naming it identically.
func NewCounter(name string) *Counter {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.counters == nil {
		registry.counters = make(map[string]*Counter)
	}
	c := registry.counters[name]
	if c == nil {
		c = &Counter{name: name}
		registry.counters[name] = c
	}
	return c
}

// NewHistogram returns the histogram registered under name, creating it on
// first use (idempotent, like NewCounter).
func NewHistogram(name string) *Histogram {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.hists == nil {
		registry.hists = make(map[string]*Histogram)
	}
	h := registry.hists[name]
	if h == nil {
		h = &Histogram{name: name}
		registry.hists[name] = h
	}
	return h
}

// ---- snapshots and aggregation ----

// Snapshot is one process's (or one aggregated world's) telemetry state:
// the non-zero counters and histograms by name, plus the flight recorder's
// trailing events. It marshals to a single line of JSON (a control-plane
// STATS line is one line by construction).
type Snapshot struct {
	Rank     int               `json:"rank"`            // -1: launcher/aggregate
	Ranks    int               `json:"ranks,omitempty"` // measured per-rank snapshots merged in
	Counters map[string]uint64 `json:"counters,omitempty"`
	Hists    map[string]Hist   `json:"hists,omitempty"`
	Events   []Event           `json:"events,omitempty"`
}

// mergedEventsMax bounds an aggregate's event tail so a large world's
// merged snapshot stays one bounded line.
const mergedEventsMax = 1024

// Capture snapshots the registry and the flight recorder's last EventTail
// events for the given rank. A capture taken with telemetry off counts as no
// measured rank (Ranks 0), so an aggregate of such captures — a DUMP answered
// by ranks that do not measure — publishes nothing. It allocates (maps,
// slices) and is meant for teardown and STATS lines — never hot paths.
func Capture(rank int) Snapshot {
	s := Snapshot{Rank: rank}
	if On() {
		s.Ranks = 1
	}
	registry.mu.Lock()
	for name, c := range registry.counters {
		if v := c.Load(); v > 0 {
			if s.Counters == nil {
				s.Counters = make(map[string]uint64)
			}
			s.Counters[name] = v
		}
	}
	for name, h := range registry.hists {
		if hs := h.snapshot(); hs.Count > 0 {
			if s.Hists == nil {
				s.Hists = make(map[string]Hist)
			}
			s.Hists[name] = hs
		}
	}
	registry.mu.Unlock()
	s.Events = eventTail(EventTail)
	for i := range s.Events {
		s.Events[i].Rank = rank
	}
	return s
}

// Merge folds o into s: counters sum, histograms merge bucket-wise, event
// tails concatenate (stamped with o's rank, oldest dropped past the cap).
func (s *Snapshot) Merge(o Snapshot) {
	s.Ranks += o.Ranks
	if o.Counters != nil && s.Counters == nil {
		s.Counters = make(map[string]uint64)
	}
	for k, v := range o.Counters {
		s.Counters[k] += v
	}
	if o.Hists != nil && s.Hists == nil {
		s.Hists = make(map[string]Hist)
	}
	for k, v := range o.Hists {
		h := s.Hists[k]
		h.merge(v)
		s.Hists[k] = h
	}
	for _, e := range o.Events {
		if e.Rank == 0 {
			e.Rank = o.Rank
		}
		s.Events = append(s.Events, e)
	}
	if len(s.Events) > mergedEventsMax {
		s.Events = s.Events[len(s.Events)-mergedEventsMax:]
	}
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].T < s.Events[j].T })
}

// JSON renders the snapshot as one line (json.Marshal emits no newlines and
// sorts map keys, so equal snapshots render identically).
func (s Snapshot) JSON() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		return []byte(`{"rank":-1}`)
	}
	return b
}

// ParseSnapshot decodes one JSON snapshot line.
func ParseSnapshot(b []byte) (Snapshot, error) {
	var s Snapshot
	err := json.Unmarshal(b, &s)
	return s, err
}

// Publish emits a world's aggregate, once, where the world ends — the
// coordinator of a cross-process world after merging its ranks' latest STATS
// lines, spmd after an in-process run: to the EnvOut file when set, as a
// "world stats" line on stderr otherwise. An aggregate no measured snapshot
// was merged into (telemetry off) publishes nothing.
func Publish(agg Snapshot) {
	if agg.Ranks == 0 {
		return
	}
	line := agg.JSON()
	if path := os.Getenv(EnvOut); path != "" {
		if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "stats[pid %d]: write %s: %v\n", os.Getpid(), path, err)
		}
		return
	}
	fmt.Fprintf(os.Stderr, "stats[pid %d]: world stats %s\n", os.Getpid(), line)
}
