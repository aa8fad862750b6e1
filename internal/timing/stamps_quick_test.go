package timing

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// flatStamps is the reference implementation the tree layout must be
// observationally equivalent to: one slot per word, no summaries.
type flatStamps struct {
	w []int64
}

func newFlatStamps(size int) *flatStamps { return &flatStamps{w: make([]int64, (size+7)/8)} }

func (s *flatStamps) Set(off int, t Time) { s.w[off/8] = int64(t) }

func (s *flatStamps) SetRange(off, n int, t Time) {
	if n <= 0 {
		return
	}
	for i := off / 8; i <= (off+n-1)/8; i++ {
		s.w[i] = int64(t)
	}
}

func (s *flatStamps) Get(off int) Time { return Time(s.w[off/8]) }

func (s *flatStamps) MaxRange(off, n int) Time {
	if n <= 0 {
		return 0
	}
	var m int64
	for i := off / 8; i <= (off+n-1)/8; i++ {
		if s.w[i] > m {
			m = s.w[i]
		}
	}
	return Time(m)
}

func (s *flatStamps) Reset() { clear(s.w) }

// stampOp is one step of a random history.
type stampOp struct {
	kind   int // see apply
	off, n int // byte range, arbitrary alignment: ranges start and end mid-word and mid-node
	t      Time
}

// randOp draws an op over a region of size bytes. Range lengths are capped
// at a random power of two so every level of the tree sees short and long
// ranges; one stamp in 16 is 0, a legal stamp (an op issued at virtual time
// 0) that no summary may lose.
func randOp(r *rand.Rand, size int) stampOp {
	off := r.Intn(size)
	n := r.Intn(1 << r.Intn(23))
	t := Time(r.Intn(1 << 16))
	if r.Intn(16) == 0 {
		t = 0
	}
	return stampOp{kind: r.Intn(64), off: off, n: min(n, size-off), t: t}
}

// stampsIface lets apply drive both implementations identically.
type stampsIface interface {
	Set(off int, t Time)
	SetRange(off, n int, t Time)
	Get(off int) Time
	MaxRange(off, n int) Time
	Reset()
}

// apply runs op against s and returns the value the op observed (0 for
// writes).
func apply(s stampsIface, op stampOp) Time {
	switch k := op.kind; {
	case k < 16:
		s.Set(op.off, op.t)
	case k < 36:
		s.SetRange(op.off, op.n, op.t)
	case k < 44:
		return s.Get(op.off)
	case k < 63:
		return s.MaxRange(op.off, op.n)
	default:
		s.Reset()
	}
	return 0
}

// treeSizes exercise every level of the tree: a sub-block region, exactly one
// block, the benchmark's bulk window plus a ragged tail, and a region one
// level deeper still that ends mid-word.
var treeSizes = []int{40, 8 * BlockWords, 272<<10 + 8, 2<<20 + 24}

// TestStampsEquivalence drives random sequential histories of Set, SetRange,
// Get, MaxRange and Reset through the tree and the flat reference, and
// requires every observation — including a final per-word Get sweep — to
// match. This is the observational-equivalence property DESIGN.md §6.1
// claims for the layout.
func TestStampsEquivalence(t *testing.T) {
	for _, size := range treeSizes {
		// The final sweep is linear in the region, so the big regions run
		// fewer, longer histories.
		histories, length := 400, 60
		if size > 1<<16 {
			histories, length = 40, 400
			if testing.Short() {
				histories = 8 // the -race legs run short
			}
		}
		r := rand.New(rand.NewSource(int64(size)))
		a, b := NewStamps(size), newFlatStamps(size)
		for h := 0; h < histories; h++ {
			a.Reset()
			b.Reset()
			for i := 0; i < length; i++ {
				op := randOp(r, size)
				if got, want := apply(a, op), apply(b, op); got != want {
					t.Fatalf("size %d history %d op %d %+v: observed %d, flat %d", size, h, i, op, got, want)
				}
			}
			for off := 0; off < size; off += 8 {
				if got, want := a.Get(off), b.Get(off); got != want {
					t.Fatalf("size %d history %d: final Get(%d) = %d, flat %d", size, h, off, got, want)
				}
			}
		}
	}
}

// TestStampsResetRecycles checks that Reset returns a used Stamps to the
// all-zero state the pool contract requires: not only the observable stamps
// but every backing word, since a recycled slab is handed to NewStampsOver
// callers as "all zero".
func TestStampsResetRecycles(t *testing.T) {
	for _, size := range treeSizes {
		n64, n32 := StampSlabLens(size)
		i64, u32 := make([]int64, n64), make([]uint32, n32)
		s := NewStampsOver(i64, u32, size)
		r := rand.New(rand.NewSource(int64(size)))
		for i := 0; i < 200; i++ {
			op := randOp(r, size)
			op.kind %= 36 // writes only
			apply(s, op)
		}
		s.Reset()
		for i, v := range i64 {
			if v != 0 {
				t.Fatalf("size %d: int64 slab word %d = %d after Reset", size, i, v)
			}
		}
		for i, v := range u32 {
			if v != 0 {
				t.Fatalf("size %d: uint32 slab word %d = %d after Reset", size, i, v)
			}
		}
		if s.Bytes() != (size+7)/8*8 {
			t.Fatalf("Bytes = %d", s.Bytes())
		}
	}
}

// TestDirtyBlocksSuperset checks the recycler's contract: every word ever
// stamped since the last Reset lies inside an extent DirtyBlocks reports,
// whether the record that covers it is the word's own, a block fill, or a
// fill several levels up — and whatever the stamp, 0 included.
func TestDirtyBlocksSuperset(t *testing.T) {
	for _, size := range treeSizes {
		r := rand.New(rand.NewSource(int64(size) + 1))
		nw := (size + 7) / 8
		s := NewStamps(size)
		for h := 0; h < 60; h++ {
			s.Reset()
			written := make([]bool, nw)
			for i := r.Intn(12); i >= 0; i-- {
				op := randOp(r, size)
				op.kind %= 36 // writes only
				if h%4 == 0 {
					op.t = 0 // a whole history at virtual time 0
				}
				apply(s, op)
				first, last := op.off/8, op.off/8
				if op.kind >= 16 {
					if op.n <= 0 {
						continue
					}
					last = (op.off + op.n - 1) / 8
				}
				for w := first; w <= last; w++ {
					written[w] = true
				}
			}
			reported := make([]bool, nw)
			s.DirtyBlocks(func(lo, hi int) {
				if lo < 0 || hi > nw*8 || lo >= hi || lo%8 != 0 || hi%8 != 0 {
					t.Fatalf("size %d: DirtyBlocks extent [%d, %d) malformed", size, lo, hi)
				}
				for w := lo / 8; w < hi/8; w++ {
					reported[w] = true
				}
			})
			for w := range written {
				if written[w] && !reported[w] {
					t.Fatalf("size %d history %d: word %d was stamped but DirtyBlocks skipped it", size, h, w)
				}
			}
		}
	}
}

// TestStampsConcurrent runs one filling writer, one single-word writer and
// one reader at once (run it under -race). With the word outside the filled
// range each writer owns its words, so the reader must see each location
// advance monotonically through that writer's stamps, and a word write that
// completed before a read began must be visible to it even while fills keep
// taking fresh epochs. With the word inside the range the writers race, and
// the reader may see either side — but only stamps somebody wrote.
func TestStampsConcurrent(t *testing.T) {
	const (
		size     = 272<<10 + 8
		fillOff  = 24<<10 + 8 // unaligned at every level
		fillLen  = 200 << 10
		rounds   = 5000
		wordBase = 1 << 32 // word stamps sit above every fill stamp
	)
	for _, tc := range []struct {
		name    string
		wordOff int
	}{
		{"disjoint", 8 << 10},
		{"overlapping", fillOff + 100<<10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStamps(size)
			overlap := tc.wordOff >= fillOff
			var done atomic.Int64 // highest word stamp whose Set has returned
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				for k := 1; k <= rounds; k++ {
					s.SetRange(fillOff, fillLen, Time(k))
				}
			}()
			go func() {
				defer wg.Done()
				for k := 1; k <= rounds; k++ {
					s.Set(tc.wordOff, wordBase+Time(k))
					done.Store(wordBase + int64(k))
				}
			}()
			stop := make(chan struct{})
			readerDone := make(chan struct{})
			go func() {
				defer close(readerDone)
				var lastWord, lastFill Time
				for {
					select {
					case <-stop:
						return
					default:
					}
					before := Time(done.Load())
					w := s.Get(tc.wordOff)
					f := s.MaxRange(fillOff, fillLen)
					all := s.MaxRange(0, size)
					if overlap {
						if w != 0 && (w > wordBase+rounds || (w > rounds && w <= wordBase)) {
							t.Errorf("Get saw %d, a stamp nobody wrote", w)
							return
						}
						continue
					}
					if w < lastWord || w < before || w > wordBase+rounds {
						t.Errorf("word went %d -> %d with %d already complete", lastWord, w, before)
						return
					}
					if f < lastFill || f > rounds {
						t.Errorf("fill max went %d -> %d", lastFill, f)
						return
					}
					if all < before {
						t.Errorf("MaxRange over the region = %d missed completed word write %d", all, before)
						return
					}
					lastWord, lastFill = w, f
				}
			}()
			wg.Wait()
			close(stop)
			<-readerDone
			// Quiescent again: the last writer of each word wins.
			if got, want := s.Get(tc.wordOff), Time(wordBase+rounds); !overlap && got != want {
				t.Fatalf("final word stamp %d, want %d", got, want)
			}
			s.SetRange(fillOff, fillLen, 7)
			if got := s.Get(tc.wordOff); overlap && got != 7 {
				t.Fatalf("fill after the race left word stamp %d, want 7", got)
			}
			s.Set(tc.wordOff, 9)
			if got := s.Get(tc.wordOff); got != 9 {
				t.Fatalf("word write after the race reads %d, want 9", got)
			}
			want := Time(7)
			if overlap {
				want = 9
			}
			if got := s.MaxRange(fillOff, fillLen); got != want {
				t.Fatalf("MaxRange over the filled range after the race = %d, want %d", got, want)
			}
		})
	}
}

// benchRegion is the benchmark's bulk window (benchmark/script.go fullWin):
// 24 KiB of small-op slots, then the 256 KiB landing area at bulkOff.
const (
	benchRegion  = 280 << 10
	benchBulkOff = 24 << 10
)

var benchSink Time

// benchCases are the op sizes of the benchmark's latency, sweep and
// bandwidth rounds, each at offset 0 and at the benchmark's bulkOff, where a
// 256 KiB range is aligned to nothing above 24 KiB and runs to the end of
// the region.
func benchCases(b *testing.B, run func(b *testing.B, s *Stamps, off, n int)) {
	for _, n := range []int{8, 4 << 10, 256 << 10} {
		for _, off := range []int{0, benchBulkOff} {
			b.Run(fmt.Sprintf("%dB@%dKiB", n, off>>10), func(b *testing.B) {
				s := NewStamps(benchRegion)
				// A region in use: filled once, then written word by word.
				s.SetRange(0, benchRegion, 1)
				for o := 0; o < benchRegion; o += 1 << 10 {
					s.Set(o, 2)
				}
				b.ResetTimer()
				run(b, s, off, n)
			})
		}
	}
}

// BenchmarkStampsSet times the single-word write in steady state (no fill
// between writes): one locked instruction, the stamp store.
func BenchmarkStampsSet(b *testing.B) {
	for _, off := range []int{0, benchBulkOff} {
		b.Run(fmt.Sprintf("8B@%dKiB", off>>10), func(b *testing.B) {
			s := NewStamps(benchRegion)
			s.SetRange(0, benchRegion, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Set(off, Time(i))
			}
		})
	}
}

func BenchmarkStampsSetRange(b *testing.B) {
	benchCases(b, func(b *testing.B, s *Stamps, off, n int) {
		for i := 0; i < b.N; i++ {
			s.SetRange(off, n, Time(i))
		}
	})
}

// BenchmarkStampsMaxRange reads back what the matching SetRange wrote, with
// the word writes of a region in use beneath it.
func BenchmarkStampsMaxRange(b *testing.B) {
	benchCases(b, func(b *testing.B, s *Stamps, off, n int) {
		s.SetRange(off, n, 3)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink += s.MaxRange(off, n)
		}
	})
}

// climbGet is Get as it was before it skipped the climb in a region no fill
// has reached since the last Reset: every level, whatever the counter.
func climbGet(s *Stamps, off int) Time {
	i := off / 8
	e, p := atomic.LoadUint32(&s.wEpoch[i]), &s.words[i]
	if e != atomic.LoadUint32(s.epoch)+1 {
		for l := range s.lv {
			i >>= blockShift
			if fe := atomic.LoadUint32(&s.lv[l].fEpoch[i]); fe > e {
				e, p = fe, &s.lv[l].fill[i]
			}
		}
	}
	return Time(atomic.LoadInt64(p))
}

// TestStampsGetSkipsOnlyUnfilled: over random histories of Set, SetRange
// and Reset, in which a fill is rare enough that many a history has none
// since its last Reset, every word's Get and every range's MaxRange equal
// what the full climb reads.
func TestStampsGetSkipsOnlyUnfilled(t *testing.T) {
	for _, size := range treeSizes[:3] {
		r := rand.New(rand.NewSource(int64(size) + 2))
		s := NewStamps(size)
		for h := 0; h < 200; h++ {
			op := randOp(r, size)
			switch k := r.Intn(16); {
			case k < 12:
				s.Set(op.off, op.t)
			case k < 14:
				s.SetRange(op.off, op.n, op.t)
			default:
				s.Reset()
			}
			for off := 0; off < size; off += 8 * (1 + size/4096) {
				if got, want := s.Get(off), climbGet(s, off); got != want {
					t.Fatalf("size %d step %d (counter %d): Get(%d) = %d, the climb reads %d", size, h, *s.epoch, off, got, want)
				}
			}
			q := randOp(r, size)
			want := Time(0)
			for off := q.off &^ 7; off < q.off+q.n; off += 8 {
				want = max(want, climbGet(s, off))
			}
			if got := s.MaxRange(q.off, q.n); q.n > 0 && got != want {
				t.Fatalf("size %d step %d: MaxRange(%d, %d) = %d, the climb reads %d", size, h, q.off, q.n, got, want)
			}
		}
	}
}
