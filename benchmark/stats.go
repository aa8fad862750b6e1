package main

import (
	"math"
	"sort"
)

// series collects the timed samples of one op kind. Samples arrive in
// blocks (one block per round, the rounds of all kinds interleaved). Three
// readings come out of it, two of them over blocks of the block median: the
// median (the typical value ISSUE 11 defines) and the fifth percentile (the
// typical value of the run's quiet blocks, which the bounded metrics
// report); and a tail percentile of all samples.
type series struct {
	blockMeds []float64 // one median per closed block, ns
	all       []float64 // every sample, ns
	open      int       // index in all where the open block starts
	ops       int64     // operations the samples cover (a sample may average a group)
}

// add records one sample of ns nanoseconds per op covering ops operations.
func (s *series) add(ns float64, ops int) {
	s.all = append(s.all, ns)
	s.ops += int64(ops)
}

// closeBlock ends the current block; an empty block leaves no trace.
func (s *series) closeBlock() {
	if blk := s.all[s.open:]; len(blk) > 0 {
		tmp := append([]float64(nil), blk...)
		s.blockMeds = append(s.blockMeds, median(tmp))
	}
	s.open = len(s.all)
}

// value is the median over blocks of the block median (0 with no blocks).
func (s *series) value() float64 { return quantile(s.blockMeds, 0.5) }

// quiet is the fifth percentile over blocks of the block median. A block's
// median is the common path of a few hundred ops, so a change to that path
// moves every block and this reading with them. What the percentile leaves
// out is time, not ops: the blocks during which a co-tenant of the host
// held the core's other thread, whose share of a run wanders between a
// twentieth and nine tenths on the hosts this runs on.
func (s *series) quiet() float64 { return quantile(s.blockMeds, quietQ) }

// quietQ is the quantile quiet and the set-up time read.
const quietQ = 0.05

// quantile is the q-quantile of v, interpolated between neighbours (0 for
// an empty v).
func quantile(v []float64, q float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	pos := q * float64(n-1)
	lo := int(pos)
	hi := min(lo+1, n-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// tailLevels are the percentiles a tail may be reported at, ascending.
var tailLevels = []float64{50, 75, 90, 95, 98, 99, 99.5, 99.9, 99.99}

// tail returns the highest percentile of all samples that still has at
// least ten samples beyond it, and the level chosen (0, 0 when even the
// median has fewer than ten samples beyond it).
func (s *series) tail() (value, level float64) {
	n := len(s.all)
	sorted := append([]float64(nil), s.all...)
	sort.Float64s(sorted)
	for i := len(tailLevels) - 1; i >= 0; i-- {
		idx := int(math.Ceil(tailLevels[i]/100*float64(n))) - 1
		if idx >= 0 && n-1-idx >= 10 {
			return sorted[idx], tailLevels[i]
		}
	}
	return 0, 0
}

// median sorts v in place and returns its median.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}

// ratio is a/b, or 0 when there is nothing to divide by (a kind that never
// ran): every reported value must be a finite number.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
