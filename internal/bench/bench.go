// Package bench is the experiment harness that regenerates every figure and
// table of the paper's evaluation (§3 and §4). Each experiment returns a
// Table whose series mirror the corresponding figure's curves; the
// fompi-bench CLI and the repository-root testing.B benchmarks are thin
// wrappers around this package. All times are virtual nanoseconds produced
// by the protocol code executing over the simulated fabric; EXPERIMENTS.md
// records how the shapes compare with the paper's Blue Waters measurements.
package bench

import (
	"fmt"
	"io"
	"math"
	"sort"

	"fompi/internal/timing"
)

// Table is one experiment's result: rows of X values and one Y column per
// series (NaN marks a missing point).
type Table struct {
	ID     string // experiment id, e.g. "fig4a"
	Title  string
	XLabel string
	YLabel string
	Series []string
	rows   map[float64]map[string]float64
	xnames map[float64]string
}

// NewTable creates an empty result table.
func NewTable(id, title, xlabel, ylabel string, series ...string) *Table {
	return &Table{
		ID: id, Title: title, XLabel: xlabel, YLabel: ylabel,
		Series: series, rows: map[float64]map[string]float64{},
	}
}

// XName labels an X value with a display name (model/call tables).
func (t *Table) XName(x float64, name string) {
	if t.xnames == nil {
		t.xnames = map[float64]string{}
	}
	t.xnames[x] = name
}

// Set records one point.
func (t *Table) Set(x float64, series string, y float64) {
	row := t.rows[x]
	if row == nil {
		row = map[string]float64{}
		t.rows[x] = row
	}
	row[series] = y
}

// Get returns the point and whether it exists.
func (t *Table) Get(x float64, series string) (float64, bool) {
	row, ok := t.rows[x]
	if !ok {
		return 0, false
	}
	y, ok := row[series]
	return y, ok
}

// Xs returns the sorted X values.
func (t *Table) Xs() []float64 {
	xs := make([]float64, 0, len(t.rows))
	for x := range t.rows {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	return xs
}

// Fprint renders the table in the paper's units, one row per X value.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "# %s — %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "%-12s", t.XLabel)
	for _, s := range t.Series {
		fmt.Fprintf(w, " %16s", s)
	}
	fmt.Fprintf(w, "   [%s]\n", t.YLabel)
	for _, x := range t.Xs() {
		if name, ok := t.xnames[x]; ok {
			fmt.Fprintf(w, "%-20s", name)
		} else {
			fmt.Fprintf(w, "%-12.6g", x)
		}
		for _, s := range t.Series {
			if y, ok := t.Get(x, s); ok {
				fmt.Fprintf(w, " %16.4g", y)
			} else {
				fmt.Fprintf(w, " %16s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// Median returns the middle element (averaging even-length middles).
func Median(xs []timing.Time) timing.Time {
	if len(xs) == 0 {
		return 0
	}
	s := append([]timing.Time(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// MaxOf returns the maximum of xs (the paper's per-repetition bucket is the
// max across ranks).
func MaxOf(xs []timing.Time) timing.Time {
	var m timing.Time
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Fit performs a least-squares linear fit y = a·x + b over the points of one
// series of t, returning slope and intercept. Used by the models experiment
// to recover the paper's closed-form constants from the measured sweeps.
func (t *Table) Fit(series string) (slope, intercept float64) {
	var sx, sy, sxx, sxy, n float64
	for _, x := range t.Xs() {
		y, ok := t.Get(x, series)
		if !ok || math.IsNaN(y) {
			continue
		}
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		n++
	}
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	slope = (n*sxy - sx*sy) / (n*sxx - sx*sx)
	intercept = (sy - slope*sx) / n
	return slope, intercept
}

// Config scales the experiments: Quick keeps everything laptop-fast, Full
// uses larger rank counts and repetition counts.
type Config struct {
	Reps    int   // repetitions per configuration (paper: 1000)
	MaxP    int   // largest rank count for scaling experiments
	Inserts int   // hashtable inserts per rank (paper: 16384)
	Verbose bool  // unused by experiments; CLI chatter
	Seed    int64 // workload seed
}

// Quick returns the fast default configuration. MaxP rides the fabric's
// host-side throughput: the hot-path overhaul (COW region tables, waiter-
// aware doorbells, block-summary stamps, sharded pacing) raised it 64→256
// within the same wall-clock budget (EXPERIMENTS.md, "Host performance").
func Quick() Config { return Config{Reps: 51, MaxP: 256, Inserts: 512, Seed: 7} }

// Full returns a configuration closer to the paper's repetition counts
// (MaxP raised 1024→4096 by the same hot-path work).
func Full() Config { return Config{Reps: 301, MaxP: 4096, Inserts: 4096, Seed: 7} }

// Sizes is the message-size sweep of Figures 4 and 5 (8 B to 256 KiB).
func Sizes(max int) []int {
	var out []int
	for s := 8; s <= max; s *= 2 {
		out = append(out, s)
	}
	return out
}

// PSweep returns rank counts 2, 4, ..., maxP (powers of two).
func PSweep(maxP int) []int {
	var out []int
	for p := 2; p <= maxP; p *= 2 {
		out = append(out, p)
	}
	return out
}
