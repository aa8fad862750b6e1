package netrun

import "fompi/internal/telemetry"

// The wire engine's metrics (DESIGN.md §13). Counters and histograms are
// process-global and registered by name, so a loopback test hosting both
// workers in one process reads the whole world's totals from one registry.
var (
	mBatches     = telemetry.NewCounter("net.batches")     // frames flushed that carry a fire-class entry
	mFusedOps    = telemetry.NewHistogram("net.fused_ops") // fire-class entries per such frame
	mWindow      = telemetry.NewHistogram("net.window")    // window occupancy at frame queue time
	mRetransmits = telemetry.NewCounter("net.retransmits") // in-flight frames re-sent after a reconnect
	mResumes     = telemetry.NewCounter("net.resumes")     // mid-window recoveries (redial + suffix replay)
	mDedupHits   = telemetry.NewCounter("net.dedup_hits")  // owner-side cached-reply replays
	mRTT         = telemetry.NewHistogram("net.rtt_ns")    // per-frame wire round trip, first send to reply
)
