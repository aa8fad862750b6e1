//go:build !windows

package transporttest

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"fompi/internal/rankio"
	"fompi/internal/spmd"
	"fompi/internal/telemetry"
)

// captureStderr points this process's stderr — and so that of every rank it
// spawns from now on — at a pipe until stop, and returns what has arrived.
// stop waits briefly for the ranks' last writes, restores stderr and is
// idempotent; a failed test gets the captured text on the real stderr.
func captureStderr(t *testing.T) (seen func() string, stop func()) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = w
	var mu sync.Mutex
	var text strings.Builder
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc := bufio.NewScanner(r)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			mu.Lock()
			text.WriteString(sc.Text() + "\n")
			mu.Unlock()
		}
	}()
	seen = func() string {
		mu.Lock()
		defer mu.Unlock()
		return text.String()
	}
	var once sync.Once
	stop = func() {
		once.Do(func() {
			os.Stderr = saved
			w.Close() // EOF once the ranks, which share the pipe, have exited
			select {
			case <-done:
			case <-time.After(5 * time.Second):
			}
			r.Close()
			<-done
			if t.Failed() {
				saved.WriteString(seen())
			}
		})
	}
	return seen, stop
}

var statsLine = regexp.MustCompile(`rank (\d+) stats \{`)

// TestConformanceDump: a SIGQUIT to the launcher of a stuck world — ranks 1–3
// parked in a barrier that waits on rank 0, rank 0 waiting on a file — reaches
// every rank over its control stream, and within one heartbeat the launcher
// prints every rank's STATS line. The world then ends cleanly, and the
// aggregate it publishes counts each rank once: the snapshot a rank ships with
// its DONE supersedes its DUMP answer, it is not added to it. An in-process
// world has no handler: Go's own SIGQUIT dump already shows every rank.
func TestConformanceDump(t *testing.T) {
	cfg := spmd.Config{Ranks: 4, RanksPerNode: 2}
	tm, err := rankio.ParseTimeouts(chaosTimeouts)
	if err != nil {
		t.Fatal(err)
	}
	launcher := spmd.WorkerOf() == ""
	out := ""
	if launcher {
		t.Setenv("TMPDIR", t.TempDir()) // workers inherit it: where the markers go
		out = filepath.Join(os.TempDir(), "agg.json")
		t.Setenv(telemetry.EnvOut, out)
		t.Setenv(telemetry.EnvVar, "1") // the ranks measure; the launcher only merges
		t.Setenv(rankio.EnvTimeouts, chaosTimeouts)
	}
	eachBackendLeg(t, "TestConformanceDump", cfg, func(label string, c spmd.Config) {
		if label == "in-process" {
			return
		}
		parked := filepath.Join(os.TempDir(), "dump-parked-"+label)
		release := filepath.Join(os.TempDir(), "dump-release-"+label)
		body := func(p *spmd.Proc) {
			if p.Rank() == 0 {
				os.WriteFile(parked, nil, 0o600)
				for _, err := os.Stat(release); err != nil; _, err = os.Stat(release) {
					time.Sleep(time.Millisecond)
				}
			}
			p.Barrier()
		}
		if !launcher {
			spmd.Run(c, body) // a worker exits inside
		}
		seen, stop := captureStderr(t)
		defer stop()
		defer os.WriteFile(release, nil, 0o600) // a failing leg still lets its world end
		errc := make(chan error, 1)
		go func() { errc <- spmd.Run(c, body) }()
		// Rank 0 runs its body only after GO, so the coordinator has its
		// SIGQUIT handler by then: the signal cannot kill this process.
		for _, err := os.Stat(parked); err != nil; _, err = os.Stat(parked) {
			select {
			case err := <-errc:
				t.Fatalf("%s backend: the world ended before rank 0 parked: %v", label, err)
			case <-time.After(5 * time.Millisecond):
			}
		}
		time.Sleep(50 * time.Millisecond) // ranks 1–3 into the barrier
		t0 := time.Now()
		syscall.Kill(os.Getpid(), syscall.SIGQUIT)
		answered := map[string]bool{}
		for len(answered) < cfg.Ranks && time.Since(t0) < tm.HeartbeatEvery {
			time.Sleep(5 * time.Millisecond)
			for _, m := range statsLine.FindAllStringSubmatch(seen(), -1) {
				answered[m[1]] = true
			}
		}
		if len(answered) < cfg.Ranks {
			t.Fatalf("%s backend: stats lines of ranks %v, want all %d, within one heartbeat (%v) of SIGQUIT",
				label, answered, cfg.Ranks, tm.HeartbeatEvery)
		}
		os.WriteFile(release, nil, 0o600)
		if err := <-errc; err != nil {
			t.Fatalf("%s backend: the world failed after a DUMP: %v", label, err)
		}
		stop() // every rank has exited: its stacks are in
		for r := 0; r < cfg.Ranks; r++ {
			if head := fmt.Sprintf("rank %d goroutines", r); !strings.Contains(seen(), head) {
				t.Errorf("%s backend: no %q header on the ranks' stderr", label, head)
			}
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatalf("%s backend: published stats file: %v", label, err)
		}
		agg, err := telemetry.ParseSnapshot(b)
		if err != nil || agg.Ranks != cfg.Ranks {
			t.Fatalf("%s backend: published aggregate has ranks %d (%v), want %d: a DUMP's snapshot counted beside the final one?\n%s",
				label, agg.Ranks, err, cfg.Ranks, b)
		}
		os.Remove(out)
	})
}
