package transporttest

import (
	"encoding/binary"
	"testing"
	"time"

	"fompi/internal/simnet"
	"fompi/internal/spmd"
	"fompi/internal/timing"
)

// TestConformanceAmoChain checks that atomics into one rank serialize on
// that rank's port wherever the issuer lives: two inter-node origins and one
// intra-node origin (no NIC booking, still under the port) fetch-add one
// word in each of two different regions of rank 0 concurrently — inline
// through shared memory, through the owner's service loop, or both at once
// on the hybrid world. Each atomic chains through its word's stamp: it
// departs at base = max(issuer's clock, the stamp its predecessor left) and
// leaves its own landing time behind. The issues are non-blocking, so the
// stamps run ahead of the issuers' clocks and the chain binds. Every origin
// files (base, earliest landing) under the value it fetched — a unique
// position in the word's chain — and rank 0 checks each chain link by link:
// no atomic may depart before its predecessor landed, which is exactly what
// two atomics reading the same prior stamp would break. Rank 0 also samples
// both stamps while the origins run and must never see one step back, and
// the counts must be exact.
func TestConformanceAmoChain(t *testing.T) {
	const (
		perRank = 200 // even: each origin hits each word perRank/2 times
		links   = 3 * perRank / 2
		doneOff = 8  // done flags of ranks 1..3 follow the counter word
		recOff  = 64 // chain records, 16 bytes each, indexed by fetched value
	)
	cfg := spmd.Config{Ranks: 4, RanksPerNode: 2}
	runAll(t, "TestConformanceAmoChain", cfg, func(p *spmd.Proc) {
		regA, keyA := setupRegion(p, recOff+16*links)
		regB, keyB := setupRegion(p, recOff+16*links)
		ep := p.EP()
		if p.Rank() != 0 {
			// Completion = base + max(PutLat, Amo) on both profiles (the
			// NIC queue of 1 ns bookings never outlasts the AMO round
			// trip), and no landing is earlier than base + PutLat.
			pr := ep.Model().For(p.SameNode(0))
			keys := [2]simnet.Key{keyA, keyB}
			var rec [16]byte
			for i := 0; i < perRank; i++ {
				w := (i + p.Rank()) % 2
				old, h := ep.FetchOpNB(simnet.Addr{Rank: 0, Key: keys[w]}, simnet.AmoSum, 1)
				check(old < links, "rank %d: fetch-add on word %d returned %d of %d", p.Rank(), w, old, links)
				base := int64(h.CompTime()) - max(pr.PutLatNs, pr.AmoNs)
				binary.LittleEndian.PutUint64(rec[:], uint64(base))
				binary.LittleEndian.PutUint64(rec[8:], uint64(base+pr.PutLatNs))
				ep.PutNBI(simnet.Addr{Rank: 0, Key: keys[w], Off: recOff + 16*int(old)}, rec[:])
			}
			ep.StoreW(simnet.Addr{Rank: 0, Key: keyA, Off: doneOff * p.Rank()}, 1)
			ep.Gsync()
		} else {
			regs := [2]*simnet.Region{regA, regB}
			var seen [2]timing.Time
			for done := false; !done; {
				done = regA.LocalWord(doneOff) != 0 && regA.LocalWord(2*doneOff) != 0 && regA.LocalWord(3*doneOff) != 0
				for w, reg := range regs {
					s := reg.StampMax(0, 8)
					check(s >= seen[w], "word %d: stamp stepped back from %d to %d (a chain link was overwritten)", w, seen[w], s)
					seen[w] = s
				}
				time.Sleep(20 * time.Microsecond)
			}
			for w, reg := range regs {
				check(reg.LocalWord(0) == links, "word %d counts %d, want %d", w, reg.LocalWord(0), links)
				landed := int64(0)
				for k := 0; k < links; k++ {
					base := int64(reg.LocalWord(recOff + 16*k))
					check(base >= landed, "word %d: link %d departs at %d, before link %d landed at %d or later (two atomics chained off one stamp)",
						w, k, base, k-1, landed)
					landed = int64(reg.LocalWord(recOff + 16*k + 8))
					check(landed > base, "word %d: link %d left no record", w, k)
				}
				check(int64(seen[w]) >= landed, "word %d: stamped %d at rest, before its last link landed (%d)", w, seen[w], landed)
			}
		}
		p.Barrier()
	})
}
