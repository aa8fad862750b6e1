package netrun

import (
	"fmt"
	"os"
	"sync"

	"fompi/internal/rankio"
	"fompi/internal/telemetry"
)

// The wire engine's metrics (DESIGN.md §13). Counters and histograms are
// process-global and registered by name, so a loopback test hosting both
// workers in one process reads the whole world's totals from one registry.
var (
	mBatches     = telemetry.NewCounter("net.batches")     // opBatch frames flushed
	mFusedOps    = telemetry.NewHistogram("net.fused_ops") // sub-ops per flushed opBatch frame
	mWindow      = telemetry.NewHistogram("net.window")    // window occupancy at frame queue time
	mRetransmits = telemetry.NewCounter("net.retransmits") // in-flight frames re-sent after a reconnect
	mResumes     = telemetry.NewCounter("net.resumes")     // mid-window recoveries (redial + suffix replay)
	mDedupHits   = telemetry.NewCounter("net.dedup_hits")  // owner-side cached-reply replays
	mRTT         = telemetry.NewHistogram("net.rtt_ns")    // per-op wire round trip, first send to reply
)

// sendStatsLocked ships this rank's stats frame on the control stream; the
// caller holds ctlWr and writes it *before* the DONE/FAIL status line, so
// the coordinator's per-worker reader is guaranteed to see the snapshot
// before it can account the rank as finished — and therefore before the
// world can reach BYE, Finish can close the listener, or hybridrun can
// unmap its arena (the stats-vs-teardown ordering of ISSUE 10).
func (w *World) sendStatsLocked() {
	if !telemetry.On() {
		return
	}
	fmt.Fprintf(w.ctl, "STATS %s\n", telemetry.Capture(w.rank).JSON())
}

// Coordinator-side aggregation state: the last completed world's merged
// snapshot, kept for the package's tests (LastStats, export_test.go).
var (
	lastStatsMu sync.Mutex
	lastStats   *telemetry.Snapshot
)

// publishStats records and emits the aggregate at the end of coordinate():
// to the FOMPI_STATS_OUT file when set, to stderr otherwise. Failure paths
// publish too — a RANKFAIL post-mortem is exactly when the merged flight
// recorder tails matter most.
func publishStats(agg telemetry.Snapshot) {
	if agg.Ranks == 0 {
		return
	}
	lastStatsMu.Lock()
	cp := agg
	lastStats = &cp
	lastStatsMu.Unlock()
	line := agg.JSON()
	if path := os.Getenv(telemetry.EnvOut); path != "" {
		if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
			rankio.Logf("netrun", "write %s: %v", path, err)
		}
		return
	}
	rankio.Logf("netrun", "world stats %s", line)
}
