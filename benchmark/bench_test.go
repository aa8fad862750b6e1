package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: a
// cross-process world re-executes it with the benchmark's own command line,
// which main handles (it never returns in a rank process).
func TestMain(m *testing.M) {
	if slices.Contains(os.Args, "-world") {
		main()
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpec holds the committed BENCHMARK.json to the tables in spec.go.
func TestSpec(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from `benchmark -spec`; regenerate it")
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestQuiet holds the bounded metrics' estimator to its two claims: a
// slower common path moves it as far as it moves every block, and blocks a
// co-tenant slowed, up to nine tenths of the run, do not move it.
func TestQuiet(t *testing.T) {
	blocks := func(base float64, slowOf10 int) *series {
		var s series
		for b := 0; b < 1000; b++ {
			v := base * (1 + 0.01*float64(b%7)) // the op's own scatter
			if b%10 < slowOf10 {
				v *= 1.8 // the core's other thread is busy
			}
			for i := 0; i < 9; i++ {
				s.add(v, 1)
			}
			s.closeBlock()
		}
		return &s
	}
	calm := blocks(100, 0).quiet()
	if got := blocks(120, 0).quiet(); math.Abs(got/calm-1.2) > 0.001 {
		t.Errorf("common path 20%% slower: quiet() moved by %.3f, want 1.2", got/calm)
	}
	for _, slow := range []int{1, 5, 9} {
		if got := blocks(100, slow).quiet(); math.Abs(got/calm-1) > 0.04 {
			t.Errorf("%d of 10 blocks disturbed: quiet() moved by %.3f, want 1", slow, got/calm)
		}
	}
	if got := blocks(100, 9).value(); got < 1.5*calm {
		t.Errorf("9 of 10 blocks disturbed: value() = %.1f, expected it to follow the majority", got)
	}
}

// TestSmoke runs the in-process baseline and one cross-process workload
// with the smallest blocks, untraced and traced, and checks the emitted
// line: it parses, names exactly the declared metrics, and no op failed.
func TestSmoke(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", t.TempDir())
	for _, name := range []string{"proc_rma", "mp_rma"} {
		for trace, spec := range [][]metric{endToEnd, perLayer} {
			b := &bench{exe: exe, wl: findWorkload(name),
				o: options{workload: name, seed: 7, seconds: 0.6, trace: trace, quick: true, out: t.TempDir()}}
			res, err := b.runWorkload()
			if err != nil {
				t.Fatalf("%s trace=%d: %v", name, trace, err)
			}
			raw, err := json.Marshal(res.driverLine())
			if err != nil {
				t.Fatal(err)
			}
			var line struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(raw, &line); err != nil {
				t.Fatalf("%s trace=%d: emitted line does not parse: %v", name, trace, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d notes=%v",
					name, trace, line.Correct, line.Attempted, line.Failed, res.notes)
			}
			if len(line.Metrics) != len(spec) {
				t.Errorf("%s trace=%d: %d metrics emitted, %d declared", name, trace, len(line.Metrics), len(spec))
			}
			for _, m := range spec {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s missing or in unit %q, want %q", name, trace, m.Name, got.Unit, m.Unit)
				}
				if trace == 0 && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}
