package transporttest

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"fompi/internal/core"
	"fompi/internal/spmd"
)

// mix64 is splitmix64's finalizer: distinct, well-spread operands from a
// (rank, index) pair, so a lost XOR cannot cancel against another.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// TestConformanceSameOpAtomic checks MPI-3's same-op atomicity (§11.7.1,
// under the default accumulate_ops=same_op_no_op): accumulate-class calls
// with one operator to one location behave as if run in some serial order,
// whichever call each origin makes. Rank 1 accumulates while ranks 2 and 3
// fetch-and-op or get-accumulate the same operator into word 0 of rank 0,
// one fence epoch a case. A call that took a different path than its
// rival's — the lock fallback against the atomic unit — loses the updates
// that land inside its get-modify-put, and the word rank 0 reads after the
// closing fence shows it:
//   - BXOR, Accumulate against FetchAndOp: the word must be the XOR of every
//     operand;
//   - BAND, the same pair, in rounds that each clear every bit of the word
//     once: it must end at zero, and no fetched value may regain a bit an
//     earlier fetch saw cleared;
//   - SUM, one-element Accumulate against a two-element GetAccumulate: the
//     word must count every add, and each rank's fetches must rise.
//
// Every case is checked; the failures are reported together.
func TestConformanceSameOpAtomic(t *testing.T) {
	// A fallback call costs several atomic-unit calls, so rank 1 makes fast
	// calls for each of a rival's: the streams then overlap for the whole
	// epoch, not only its start.
	const ops, fast, bandRounds = 2000, 4, 96
	cfg := spmd.Config{Ranks: 4, RanksPerNode: 2}
	runAll(t, "TestConformanceSameOpAtomic", cfg, func(p *spmd.Proc) {
		w, mem := core.Allocate(p, 16, core.Config{})
		defer w.Free()
		me := p.Rank()
		calls := func(r int) int {
			if r == 1 {
				return fast * ops
			}
			return ops
		}
		cases := []string{"BXOR", "BAND", "SUM"}
		first := map[string]string{} // each case's first failure on this rank
		expect := func(c string, cond bool, format string, args ...any) {
			if !cond && first[c] == "" {
				first[c] = c + ": " + fmt.Sprintf(format, args...)
			}
		}
		word := func(i int) uint64 { return binary.LittleEndian.Uint64(mem[8*i:]) }
		var buf [16]byte
		operand := func(v uint64) []byte {
			binary.LittleEndian.PutUint64(buf[:], v)
			return buf[:8]
		}

		w.Fence()
		var want uint64
		for r := 1; r < p.Size(); r++ {
			for i := 0; i < calls(r); i++ {
				want ^= mix64(uint64(r)<<32 | uint64(i))
			}
		}
		for i := 0; me > 0 && i < calls(me); i++ {
			v := mix64(uint64(me)<<32 | uint64(i))
			if me == 1 {
				w.Accumulate(core.AccBxor, operand(v), 0, 0)
			} else {
				w.FetchAndOp(core.AccBxor, v, 0, 0)
			}
		}
		w.Fence()
		if me == 0 {
			expect("BXOR", word(0) == want, "word %#x after Accumulate against FetchAndOp, want %#x", word(0), want)
		}

		// BAND: rank 1 clears bits 0..31 one call each, ranks 2 and 3 bits
		// 32..47 and 48..63; only the atomic unit's clears can be lost.
		lost := 0
		for round := 0; round < bandRounds; round++ {
			if me == 0 {
				binary.LittleEndian.PutUint64(mem, ^uint64(0))
			}
			w.Fence()
			lo, n := 0, 32
			if me > 1 {
				lo, n = 32+16*(me-2), 16
			}
			seen := ^uint64(0)
			for b := lo; me > 0 && b < lo+n; b++ {
				mask := ^(uint64(1) << b)
				if me == 1 {
					w.Accumulate(core.AccBand, operand(mask), 0, 0)
					continue
				}
				old := w.FetchAndOp(core.AccBand, mask, 0, 0)
				expect("BAND", old&^seen == 0, "round %d: rank %d fetched %#x after %#x, a cleared bit came back",
					round, me, old, seen)
				seen = old & mask
			}
			w.Fence()
			if me == 0 && word(0) != 0 {
				lost++
			}
		}
		expect("BAND", lost == 0, "%d of %d rounds left bits set after Accumulate against FetchAndOp", lost, bandRounds)

		if me == 0 {
			binary.LittleEndian.PutUint64(mem, 0)
		}
		w.Fence()
		var last uint64
		for i := 0; me > 0 && i < calls(me); i++ {
			if me == 1 {
				w.Accumulate(core.AccSum, operand(1), 0, 0)
				continue
			}
			binary.LittleEndian.PutUint64(buf[:], 1)
			binary.LittleEndian.PutUint64(buf[8:], 1)
			var res [16]byte
			w.GetAccumulate(core.AccSum, buf[:], res[:], 0, 0)
			got := binary.LittleEndian.Uint64(res[:])
			expect("SUM", i == 0 || got > last, "rank %d fetched %d after %d", me, got, last)
			last = got
		}
		w.Fence()
		if me == 0 {
			adds := uint64(calls(1) + calls(2) + calls(3))
			expect("SUM", word(0) == adds, "word %d after Accumulate against a two-element GetAccumulate, want %d", word(0), adds)
			expect("SUM", word(1) == 2*ops, "second word %d, want %d", word(1), 2*ops)
		}
		var bad []string
		for _, c := range cases {
			if first[c] != "" {
				bad = append(bad, first[c])
			}
		}
		check(len(bad) == 0, "rank %d: %s", me, strings.Join(bad, "; "))
	})
}
