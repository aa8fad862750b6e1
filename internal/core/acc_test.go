package core

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"fompi/internal/spmd"
	"fompi/internal/timing"
)

// TestAccOpApplyTable drives AccOp.apply through every operator over edge
// values: zero, all-ones, sign/MSB patterns, float64 payloads for FSUM.
func TestAccOpApplyTable(t *testing.T) {
	const (
		ones = ^uint64(0)
		msb  = uint64(1) << 63
	)
	f := math.Float64bits
	cases := []struct {
		name            string
		op              AccOp
		target, operand uint64
		want            uint64
	}{
		{"sum", AccSum, 40, 2, 42},
		{"sum wraps", AccSum, ones, 1, 0},
		{"sum zero", AccSum, 0, 0, 0},
		{"band", AccBand, 0b1100, 0b1010, 0b1000},
		{"band ones", AccBand, ones, msb, msb},
		{"bor", AccBor, 0b1100, 0b1010, 0b1110},
		{"bor zero", AccBor, 0, 0, 0},
		{"bxor", AccBxor, 0b1100, 0b1010, 0b0110},
		{"bxor self-inverse", AccBxor, ones, ones, 0},
		{"replace", AccReplace, 7, 99, 99},
		{"replace with zero", AccReplace, 7, 0, 0},
		{"min takes operand", AccMin, 10, 3, 3},
		{"min keeps target", AccMin, 3, 10, 3},
		{"min equal", AccMin, 5, 5, 5},
		{"min unsigned msb", AccMin, msb, 1, 1}, // unsigned compare: MSB is large
		{"max takes operand", AccMax, 3, 10, 10},
		{"max keeps target", AccMax, 10, 3, 10},
		{"max unsigned msb", AccMax, msb, 1, msb},
		{"fsum", AccFSum, f(1.5), f(2.25), f(3.75)},
		{"fsum negative", AccFSum, f(-1.0), f(1.0), f(0.0)},
		{"fsum inf", AccFSum, f(math.Inf(1)), f(1), f(math.Inf(1))},
		{"noop", AccNoOp, 123, 456, 123},
	}
	for _, tc := range cases {
		if got := tc.op.apply(tc.target, tc.operand); got != tc.want {
			t.Errorf("%s: apply(%#x, %#x) = %#x, want %#x", tc.name, tc.target, tc.operand, got, tc.want)
		}
	}
}

func TestAccOpUnknownFaults(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("apply of an unknown operator must fault")
		}
	}()
	AccOp(99).apply(1, 2)
}

// TestAcceleratedSet: every operator but MIN, MAX and FSUM rides the atomic
// unit, NO_OP included.
func TestAcceleratedSet(t *testing.T) {
	accel := map[AccOp]bool{AccSum: true, AccBand: true, AccBor: true, AccBxor: true, AccReplace: true, AccNoOp: true}
	for op := AccSum; op <= AccNoOp; op++ {
		if _, got := op.amo(); got != accel[op] {
			t.Errorf("op %d amo() ok = %v, want %v", op, got, accel[op])
		}
	}
}

// TestAccumulateAllOpsOverWindow runs every operator through the full
// Accumulate path (accelerated chained AMOs and the lock-get-modify-put
// fallback) at one- and multi-element operand widths and checks the target
// memory against apply.
func TestAccumulateAllOpsOverWindow(t *testing.T) {
	ops := []AccOp{AccSum, AccBand, AccBor, AccBxor, AccReplace, AccMin, AccMax, AccFSum}
	widths := []int{1, 2, 7, 64}
	run(t, 2, 1, func(p *spmd.Proc) {
		const maxW = 64
		w, mem := Allocate(p, maxW*8, Config{})
		defer w.Free()
		for _, op := range ops {
			for _, width := range widths {
				// Deterministic operands; targets seeded identically everywhere.
				for i := 0; i < maxW; i++ {
					binary.LittleEndian.PutUint64(mem[i*8:], uint64(i)*0x0101010101010101>>3)
				}
				w.Fence()
				if p.Rank() == 0 {
					src := make([]byte, width*8)
					for i := 0; i < width; i++ {
						binary.LittleEndian.PutUint64(src[i*8:], uint64(i)+3)
					}
					w.Accumulate(op, src, 1, 0)
				}
				w.Fence()
				if p.Rank() == 1 {
					for i := 0; i < width; i++ {
						got := binary.LittleEndian.Uint64(mem[i*8:])
						tgt := uint64(i) * 0x0101010101010101 >> 3
						if got != op.apply(tgt, uint64(i)+3) {
							t.Errorf("op %d width %d elem %d: got %#x", op, width, i, got)
						}
					}
				}
				w.Fence()
			}
		}
	})
}

func TestGetAccumulateFetchesOldValues(t *testing.T) {
	run(t, 2, 1, func(p *spmd.Proc) {
		w, mem := Allocate(p, 64, Config{})
		defer w.Free()
		if p.Rank() == 1 {
			for i := 0; i < 4; i++ {
				binary.LittleEndian.PutUint64(mem[i*8:], uint64(10+i))
			}
		}
		w.Fence()
		if p.Rank() == 0 {
			src := make([]byte, 32)
			res := make([]byte, 32)
			for i := 0; i < 4; i++ {
				binary.LittleEndian.PutUint64(src[i*8:], 100)
			}
			w.GetAccumulate(AccMax, src, res, 1, 0)
			w.Flush(1)
			for i := 0; i < 4; i++ {
				if got := binary.LittleEndian.Uint64(res[i*8:]); got != uint64(10+i) {
					t.Errorf("fetched elem %d = %d, want %d", i, got, 10+i)
				}
			}
			// NoOp fetches without modifying.
			w.GetAccumulate(AccNoOp, src, res, 1, 0)
			w.Flush(1)
			for i := 0; i < 4; i++ {
				if got := binary.LittleEndian.Uint64(res[i*8:]); got != 100 {
					t.Errorf("after MAX(100): fetched elem %d = %d, want 100", i, got)
				}
			}
		}
		w.Fence()
	})
}

func TestFetchAndOpAllPaths(t *testing.T) {
	run(t, 2, 1, func(p *spmd.Proc) {
		w, mem := Allocate(p, 64, Config{})
		defer w.Free()
		if p.Rank() == 1 {
			binary.LittleEndian.PutUint64(mem, 50)
		}
		w.Fence()
		if p.Rank() == 0 {
			w.LockAll()
			if old := w.FetchAndOp(AccSum, 5, 1, 0); old != 50 { // hardware fetch-add
				t.Errorf("SUM old = %d, want 50", old)
			}
			if old := w.FetchAndOp(AccNoOp, 0, 1, 0); old != 55 { // atomic read
				t.Errorf("NoOp old = %d, want 55", old)
			}
			if old := w.FetchAndOp(AccReplace, 7, 1, 0); old != 55 { // swap
				t.Errorf("REPLACE old = %d, want 55", old)
			}
			if old := w.FetchAndOp(AccMin, 3, 1, 0); old != 7 { // fallback path
				t.Errorf("MIN old = %d, want 7", old)
			}
			if old := w.FetchAndOp(AccNoOp, 0, 1, 0); old != 3 {
				t.Errorf("after MIN(3): value = %d, want 3", old)
			}
			w.UnlockAll()
		}
		w.Fence()
	})
}

func TestAccumulateOddLengthFaults(t *testing.T) {
	err := spmd.Run(spmd.Config{Ranks: 2}, func(p *spmd.Proc) {
		w, _ := Allocate(p, 64, Config{})
		w.Fence()
		if p.Rank() == 0 {
			w.Accumulate(AccSum, make([]byte, 12), 1, 0) // not a multiple of 8
		}
		w.Fence()
	})
	if err == nil {
		t.Fatal("Accumulate with a non-multiple-of-8 buffer must fault")
	}
}

func TestBoundsErrMessage(t *testing.T) {
	msg := boundsErr(100, 32, 64, 3)
	for _, frag := range []string{"[100,132)", "64 bytes", "rank 3"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("boundsErr %q missing %q", msg, frag)
		}
	}
}

// TestAccumulateBoundsFault checks that an accumulate landing beyond the
// target window faults with the bounds error, on both dispatch paths.
func TestAccumulateBoundsFault(t *testing.T) {
	for _, op := range []AccOp{AccSum /* accelerated */, AccMin /* fallback */} {
		err := spmd.Run(spmd.Config{Ranks: 2}, func(p *spmd.Proc) {
			w := Create(p, make([]byte, 64), Config{})
			w.Fence()
			if p.Rank() == 0 {
				w.Accumulate(op, make([]byte, 16), 1, 56) // [56,72) > 64
			}
			w.Fence()
		})
		if err == nil {
			t.Fatalf("op %d: out-of-bounds accumulate must fault", op)
		}
		if !strings.Contains(err.Error(), "exceeds window of 64 bytes") {
			t.Errorf("op %d: error %q is not the bounds fault", op, err)
		}
	}
}

// TestWrappedDispFaults: a displacement so large that offset+length wraps
// round int faults with the bounds error at the origin; with a wrapping
// check it reached the target, took its port and panicked under it.
func TestWrappedDispFaults(t *testing.T) {
	err := spmd.Run(spmd.Config{Ranks: 2}, func(p *spmd.Proc) {
		w := Create(p, make([]byte, 64), Config{})
		w.Fence()
		if p.Rank() == 0 {
			w.FetchAndOp(AccSum, 1, 1, math.MaxInt64-7)
		}
		w.Fence()
	})
	if err == nil || !strings.Contains(err.Error(), "exceeds window of 64 bytes") {
		t.Fatalf("a fetch-add at disp MaxInt64-7 ended the world with %v, want the bounds fault", err)
	}
}

func TestPutBoundsFaultMatchesBoundsErr(t *testing.T) {
	err := spmd.Run(spmd.Config{Ranks: 2}, func(p *spmd.Proc) {
		w := Create(p, make([]byte, 128), Config{})
		w.Fence()
		if p.Rank() == 0 {
			w.Put(make([]byte, 64), 1, 100) // [100,164) > 128
		}
		w.Fence()
	})
	if err == nil {
		t.Fatal("out-of-bounds put must fault")
	}
	if !strings.Contains(err.Error(), boundsErr(100, 64, 128, 1)) {
		t.Errorf("fault %q does not carry boundsErr text %q", err, boundsErr(100, 64, 128, 1))
	}
}

// TestGetAccumulateChainedTime pins what a fetching chained AMO costs an
// inter-node origin: one injection, then the atomic unit's AmoNs plus
// AmoPerElNs an element (P_acc,sum = 28 ns·s + 2.4 µs) and the transfer. A
// one-element GetAccumulate stays one fetching AMO (2 400 ns). Every
// element is fetched and summed.
func TestGetAccumulateChainedTime(t *testing.T) {
	want := map[int]timing.Time{1: 2400, 2: 2850, 8: 4202, 16: 6004, 64: 16817}
	run(t, 2, 1, func(p *spmd.Proc) {
		w, mem := Allocate(p, 64*8, Config{})
		defer w.Free()
		for _, n := range []int{1, 2, 8, 16, 64} {
			for i := range mem {
				mem[i] = 0
			}
			w.Fence()
			if p.Rank() == 0 {
				src, res := make([]byte, n*8), make([]byte, n*8)
				for i := 0; i < n; i++ {
					binary.LittleEndian.PutUint64(src[i*8:], uint64(i+1))
				}
				w.GetAccumulate(AccSum, src, res, 1, 0) // the words are 0: a first call settles the NIC
				t0 := p.Now()
				w.GetAccumulate(AccSum, src, res, 1, 0)
				if got := p.Now() - t0; got != want[n] {
					t.Errorf("%d-element GetAccumulate took %d virtual ns, want %d", n, got, want[n])
				}
				for i := 0; i < n; i++ {
					if got := binary.LittleEndian.Uint64(res[i*8:]); got != uint64(i+1) {
						t.Errorf("%d elements: fetched element %d = %d, want %d", n, i, got, i+1)
					}
				}
			}
			w.Fence()
			if p.Rank() == 1 {
				for i := 0; i < n; i++ {
					if got := binary.LittleEndian.Uint64(mem[i*8:]); got != uint64(2*(i+1)) {
						t.Errorf("%d elements: element %d = %d, want %d", n, i, got, 2*(i+1))
					}
				}
			}
		}
	})
}
