package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden tables")

// goldenCfg is the fixed seed configuration the golden table was generated
// with (PR 2, against the pre-refactor flat-stamp / locked-doorbell fabric).
func goldenCfg() Config { return Config{Reps: 5, MaxP: 16, Inserts: 64, Seed: 7} }

func render(t *Table) string {
	var b bytes.Buffer
	t.Fprint(&b)
	return b.String()
}

// TestVirtualTimeDeterminism asserts that two runs of a seeded Quick
// experiment produce bit-identical virtual-time tables: the benchmark-
// determinism guard for the fabric hot-path rewrites. Fig4a is the
// experiment whose execution is strictly serialized (a two-rank
// passive-target sweep), so its virtual times are independent of host
// scheduling; experiments with concurrently booked NICs (PSCW rings, paced
// hashtables) are reproducible only statistically, in the seed fabric as
// much as in this one.
func TestVirtualTimeDeterminism(t *testing.T) {
	a := render(Fig4a(goldenCfg()))
	b := render(Fig4a(goldenCfg()))
	if a != b {
		t.Fatalf("two seeded Fig4a runs diverged:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

// TestGoldenFig4a compares Fig4a's virtual-time table against the golden
// file captured from the pre-refactor implementation (flat per-word stamps,
// mutex-guarded region map, locked doorbells, O(p) pacing): the hot-path
// rewrite must be bit-identical in virtual time, not merely close.
// Regenerate with -update-golden only when an intentional cost-model or
// protocol change shifts virtual time.
func TestGoldenFig4a(t *testing.T) {
	got := render(Fig4a(goldenCfg()))
	path := filepath.Join("testdata", "golden_fig4a.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("Fig4a virtual-time table diverged from pre-refactor golden:\n--- got\n%s\n--- want\n%s", got, want)
	}
}

// modelsCfg is goldenCfg with as many repetitions as the quick
// configuration: each synchronization row is a median over the repetitions,
// and over five P_start too would catch the order dependence described
// below.
func modelsCfg() Config { c := goldenCfg(); c.Reps = Quick().Reps; return c }

// orderDependentModelRow is the one row of the model table whose virtual
// time depends on host scheduling: P_post (k=2). Both ring neighbours of a
// rank post to it at once, and their pipelined fetch-adds on its post
// counter (core.Win.Post) chain through the counter word's stamp in the
// order the host runs them, so which poster lands second — and pays the
// first one's landing — varies from run to run (20 runs of fompi-bench -exp
// models read five values from 3.48 to 3.68 µs; with the stamp chain cut,
// all 20 read 3.401 µs).
const orderDependentModelRow = "P_post (k=2)"

// withoutRow drops the line of a rendered table that names row.
func withoutRow(table, row string) string {
	var b strings.Builder
	for _, l := range strings.SplitAfter(table, "\n") {
		if !strings.HasPrefix(l, row+" ") {
			b.WriteString(l)
		}
	}
	return b.String()
}

// TestGoldenModels compares the model table — the paper's closed-form
// constants, one row per primitive — against its golden file, so a change
// in any primitive's virtual cost fails by name. Every row but
// orderDependentModelRow must match bit for bit; that one must be present.
// Regenerate with -update-golden only when an intentional cost-model or
// protocol change shifts virtual time.
func TestGoldenModels(t *testing.T) {
	got := render(Models(modelsCfg()))
	path := filepath.Join("testdata", "golden_models.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "\n"+orderDependentModelRow+" ") {
		t.Fatalf("the model table lost its %s row:\n%s", orderDependentModelRow, got)
	}
	if withoutRow(got, orderDependentModelRow) != withoutRow(string(want), orderDependentModelRow) {
		t.Fatalf("model table diverged from its golden (%s excepted):\n--- got\n%s\n--- want\n%s", orderDependentModelRow, got, want)
	}
}
