package main

import (
	"fmt"
	"math"
	"os"
)

// fullSet is what `sh benchmark/run.sh` does with no arguments: every
// workload with tracing off, then every workload traced for the per-layer
// numbers. It returns the process exit code.
func (b *bench) fullSet() int {
	code := 0
	fence := map[string]float64{}
	for _, trace := range []int{0, 1} {
		for i := range workloads {
			b.wl, b.o.trace = &workloads[i], trace
			res, err := b.runWorkload()
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			res.print(os.Stdout)
			if res.failed != 0 {
				code = 1
			}
			if trace == 1 {
				fence[b.wl.name] = res.metrics["fence_us"]
			}
		}
	}
	// The one metric that needs two worlds: the fence at p=256 over the
	// fence at p=64 (the paper's shape is the ratio of the logarithms, 1.33).
	fmt.Printf("%-38s %14.6g ratio  (no bound; fence_us of proc_sync over proc_apps, plain rounds of the traced runs)\n",
		"fence_scale", ratio(fence["proc_sync"], fence["proc_apps"]))
	return code
}

// selfcheck runs every gated workload twice, untraced, with the same binary
// and seed, and holds the distance between the two values of every bounded
// metric, as a share of the smaller one, against the metric's bound.
func (b *bench) selfcheck() int {
	code := 0
	b.o.trace = 0
	for i := range workloads {
		if b.wl = &workloads[i]; !b.wl.gated {
			continue
		}
		var runs [2]*result
		for j := range runs {
			res, err := b.runWorkload()
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			runs[j] = res
			if res.failed != 0 {
				code = 1
			}
		}
		fmt.Printf("# %s\n", b.wl.name)
		for _, m := range endToEnd {
			a, c := runs[0].metrics[m.Name], runs[1].metrics[m.Name]
			// Either run may be the worse one: the gap has no sign.
			gap, verdict := math.Inf(1), "ok"
			if least := math.Min(a, c); least > 0 {
				gap = math.Abs(a-c) / least
			}
			if gap > m.Bound {
				verdict, code = "OVER", 1
			}
			fmt.Printf("%-18s %12.6g %12.6g %-9s gap %5.1f%% bound %4.0f%% %s\n",
				m.Name, a, c, m.Unit, gap*100, m.Bound*100, verdict)
		}
	}
	return code
}
