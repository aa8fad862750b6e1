package mprun

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"

	"fompi/internal/simnet"
)

// hdrUsed is the extent of the header page that holds words; checkHeader
// reads nothing beyond it.
const hdrUsed = hdrMaxRegions + 8

// headerAt returns a header page as a creator of layout version v writes it
// for cfg.
func headerAt(cfg ArenaConfig, v uint64) []byte {
	m := make([]byte, hdrBytes)
	writeHeader(m, cfg)
	atomic.StoreUint64(u64at(m, hdrVersion), v)
	return m
}

// TestRankSlotLayout: the two wake words a slot's sleepers futex on — the
// door's and the pacer's — are distinct aligned u32s inside the slot, on
// another cache line than the port word every write to the rank locks, and
// clear of the port's NIC interval.
func TestRankSlotLayout(t *testing.T) {
	const line = 64
	if rnDoorWake == rnPaceWake {
		t.Fatalf("the door and the pacer share the wake word at %d", rnDoorWake)
	}
	for _, wake := range []int{rnDoorWake, rnPaceWake} {
		if wake%4 != 0 || wake < 0 || wake+4 > rankStride {
			t.Fatalf("wake word at %d: not a 4-aligned u32 inside the %d-byte slot", wake, rankStride)
		}
		if wake/line == rnPort/line {
			t.Fatalf("wake word at %d shares cache line %d with the port word at %d", wake, wake/line, rnPort)
		}
		if end := rnPort + int(unsafe.Sizeof(simnet.Port{})); end > wake || end > line {
			t.Fatalf("the port ends at %d, past the wake word at %d or its first cache line", end, wake)
		}
	}
	if rankStride%line != 0 || hdrBytes%line != 0 {
		t.Fatalf("slots (%d B after a %d B header) do not start on cache lines", rankStride, hdrBytes)
	}
}

// FuzzCheckHeader drives checkHeader — the one reader of bytes a process
// maps without having written them — with arbitrary header bytes and joiner
// configurations. It never panics; it accepts a header exactly when its words
// are the ones a creator of this layout writes for that configuration; and
// the same header stamped v10, whose door waiters sleep under their own slot
// rather than the watched rank's, or v11, whose mappers add to the port's
// lock word, is refused by version.
func FuzzCheckHeader(f *testing.F) {
	cfg := ArenaConfig{Ranks: 2, RanksPerNode: 1, ArenaBytes: pageAlign}
	f.Add(headerAt(cfg, shmVersion), 2, 1, int64(0), pageAlign)
	f.Add(headerAt(cfg, 10), 2, 1, int64(0), pageAlign)
	f.Add(headerAt(cfg, 11), 2, 1, int64(0), pageAlign)
	f.Add(headerAt(cfg, shmVersion), 3, 1, int64(0), pageAlign)
	f.Add(headerAt(ArenaConfig{Ranks: 4, RanksPerNode: 2, PaceWindowNs: 20000, ArenaBytes: 16 << 20}, shmVersion), 4, 2, int64(20000), 16<<20)
	f.Add(make([]byte, hdrBytes), 2, 1, int64(0), pageAlign)
	f.Add([]byte("foMPrun1"), 1, 1, int64(0), 0)
	f.Fuzz(func(t *testing.T, data []byte, ranks, rpn int, pace int64, arenaBytes int) {
		o := ArenaConfig{Ranks: ranks, RanksPerNode: rpn, PaceWindowNs: pace, ArenaBytes: arenaBytes}
		m := make([]byte, len(data)) // from make: 8-byte aligned, as a mapping is
		copy(m, data)
		want := headerAt(o, shmVersion)
		exact := len(m) >= hdrBytes && bytes.Equal(m[:hdrUsed], want[:hdrUsed])
		if err := checkHeader(m, o); (err == nil) != exact {
			t.Fatalf("checkHeader(%x…, %+v) = %v, want acceptance exactly when the words are a creator's (they are: %v)", m[:min(len(m), hdrUsed)], o, err, exact)
		}
		if err := checkHeader(want, o); err != nil {
			t.Fatalf("the header a creator writes for %+v is refused: %v", o, err)
		}
		for _, v := range []uint64{10, 11} {
			if err := checkHeader(headerAt(o, v), o); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("layout version %d,", v)) {
				t.Fatalf("a v%d header for %+v: checkHeader = %v, want it refused by version", v, o, err)
			}
		}
	})
}
