package segpool

import "testing"

func TestGetReturnsZeroedSegment(t *testing.T) {
	s := Get(1 << 10)
	if len(s.Buf) != 1<<10 || s.St.Bytes() < 1<<10 {
		t.Fatalf("segment sized %d/%d, want 1024", len(s.Buf), s.St.Bytes())
	}
	for i, b := range s.Buf {
		if b != 0 {
			t.Fatalf("fresh segment byte %d = %d, want 0", i, b)
		}
	}
	if m := s.St.MaxRange(0, len(s.Buf)); m != 0 {
		t.Fatalf("fresh segment stamp max %d, want 0", m)
	}
}

func TestPutScrubsForReuse(t *testing.T) {
	s := Get(512)
	s.Buf[17] = 0xab
	s.St.Set(16, 42)
	Put(s)
	// The recycled segment (whether or not it is the same object) must come
	// back all-zero.
	r := Get(512)
	for i, b := range r.Buf {
		if b != 0 {
			t.Fatalf("recycled segment byte %d = %d, want 0", i, b)
		}
	}
	if m := r.St.MaxRange(0, len(r.Buf)); m != 0 {
		t.Fatalf("recycled segment stamp max %d, want 0", m)
	}
}

func TestSizesDoNotMix(t *testing.T) {
	Put(Get(256))
	if s := Get(1024); len(s.Buf) != 1024 {
		t.Fatalf("pool returned %d-byte segment for 1024-byte request", len(s.Buf))
	}
}

// TestPutScrubbedCoversZeroStampedWrites guards the scrub contract against
// writes stamped at virtual time 0 (ops issued during world setup): the
// stamp itself says nothing, so the stamps must mark the block by the write's
// epoch or the recycle hands out a dirty "all-zero" segment.
func TestPutScrubbedCoversZeroStampedWrites(t *testing.T) {
	s := Get(1 << 10)
	s.Buf[40] = 7
	s.St.Set(40, 0) // stamped store at virtual time 0
	PutScrubbed(s)
	r := Get(1 << 10)
	for i, b := range r.Buf {
		if b != 0 {
			t.Fatalf("recycled segment byte %d = %d after zero-stamped write, want 0", i, b)
		}
	}
}

// TestScrubbedOddSize recycles a segment whose byte length is not a multiple
// of 8: the stamp summaries cover the 8-byte-rounded extent, and the scrub's
// wipe must clamp to the real buffer instead of running past it.
func TestScrubbedOddSize(t *testing.T) {
	s := Get(1001)
	s.St.Set(996, 5) // stamps the final, partially-covered word
	PutScrubbed(s)   // must not panic
	s2 := Get(1001)
	for i, b := range s2.Buf {
		if b != 0 {
			t.Fatalf("recycled odd-size buffer dirty at %d", i)
		}
	}
	if s2.St.MaxRange(0, 1001) != 0 {
		t.Fatal("recycled odd-size stamps not reset")
	}
}
