package netrun

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"fompi/internal/rankio"
	"fompi/internal/simnet"
	"fompi/internal/sock"
	"fompi/internal/telemetry"
)

// enableTelemetry flips telemetry on for one test and restores the prior
// state. It returns a baseline capture: counters are process-global and
// cumulative, so assertions must diff against it.
func enableTelemetry(t *testing.T) telemetry.Snapshot {
	t.Helper()
	was := telemetry.On()
	telemetry.SetEnabled(true)
	t.Cleanup(func() { telemetry.SetEnabled(was) })
	return telemetry.Capture(-1)
}

// counterDelta returns how much the named counter grew since base.
func counterDelta(base telemetry.Snapshot, name string) uint64 {
	return telemetry.Capture(-1).Counters[name] - base.Counters[name]
}

// reserveAddr picks an ephemeral port for a coordinator: workers need a
// dialable address before Launch can report the one it bound.
func reserveAddr(t *testing.T) string {
	t.Helper()
	probe, err := sock.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("probe listen: %v", err)
	}
	addr := probe.Addr()
	probe.Close()
	return addr
}

// waitListening blocks until the coordinator at addr accepts connections.
func waitListening(t *testing.T, addr string) {
	t.Helper()
	for i := 0; ; i++ {
		c, err := sock.Dial("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			return
		}
		if i > 100 {
			t.Fatalf("coordinator never started listening: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStatsAggregationBeforeTeardown extends the shutdown-sequence proof to
// the stats plane: each worker's STATS frame rides the control stream under
// the same writer lock immediately before its DONE line, so by the time the
// coordinator has accounted both ranks finished — the precondition for BYE,
// listener close, and (on hybrid) arena unmap — the merged aggregate must
// already hold both snapshots. The test closes the loop from the outside:
// after Launch returns, the FOMPI_STATS_OUT file and LastStats must both
// report Ranks == 2 with the wire counters the exchange implies. A missing
// rank here would mean a snapshot raced teardown.
func TestStatsAggregationBeforeTeardown(t *testing.T) {
	enableTelemetry(t)
	outPath := filepath.Join(t.TempDir(), "agg.json")
	t.Setenv(telemetry.EnvOut, outPath)

	err := hostListWorld(t, rankio.Options{Backend: BackendNet, Ranks: 2, RanksPerNode: 1}, func(w *World) error {
		ep := simnet.NewEndpoint(w, w.Rank(), simnet.FoMPI())
		reg := ep.Register(64)
		w.Ready()
		peer := 1 - w.Rank()
		ep.StoreW(simnet.Addr{Rank: peer, Key: reg.Key(), Off: 0}, uint64(w.Rank())+1)
		ep.WaitLocal(func() bool { return reg.LocalWord(0) == uint64(peer)+1 })
		w.Finish()
		return nil
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}

	// Launch has returned: teardown is complete, so the aggregate is final.
	agg, ok := LastStats()
	if !ok {
		t.Fatalf("LastStats reported no aggregate after a telemetry-enabled world")
	}
	if agg.Ranks != 2 {
		t.Fatalf("aggregate merged %d rank snapshots, want 2 (a STATS frame raced teardown)", agg.Ranks)
	}
	if agg.Rank != -1 {
		t.Fatalf("aggregate rank = %d, want -1", agg.Rank)
	}
	if h := agg.Hists["net.window"]; h.Count == 0 {
		t.Fatalf("aggregate window histogram is empty after a real exchange: %+v", agg.Hists)
	}

	b, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatalf("published stats file: %v", err)
	}
	snap, err := telemetry.ParseSnapshot(b)
	if err != nil {
		t.Fatalf("published stats file does not parse: %v\n%s", err, b)
	}
	if snap.Ranks != 2 {
		t.Fatalf("published aggregate has ranks=%d, want 2:\n%s", snap.Ranks, b)
	}
}

// TestStatsShippedOnFail covers the post-mortem half of the stats plane: a
// failing rank ships its snapshot — flight-recorder tail included — under
// the writer lock right before its FAIL line, so even a world that dies
// still publishes a merged aggregate. Both workers fail (deterministically;
// one Fail plus one teardown race would make the second snapshot's arrival
// timing-dependent) after recording a marker event, and the aggregate must
// carry both snapshots and surface the markers.
func TestStatsShippedOnFail(t *testing.T) {
	enableTelemetry(t)
	t.Setenv(telemetry.EnvOut, filepath.Join(t.TempDir(), "agg.json"))

	err := hostListWorld(t, rankio.Options{Backend: BackendNet, Ranks: 2, RanksPerNode: 1}, func(w *World) error {
		w.Ready()
		telemetry.RecordEvent(telemetry.EvRankFail, uint64(w.Rank()), 0xdead)
		w.Fail("injected failure for the stats post-mortem test")
		return nil
	})
	if err == nil {
		t.Fatalf("coordinator returned nil for a failed world")
	}

	agg, ok := LastStats()
	if !ok {
		t.Fatalf("no aggregate published for the failed world")
	}
	if agg.Ranks != 2 {
		t.Fatalf("failed-world aggregate merged %d rank snapshots, want 2", agg.Ranks)
	}
	marker := false
	for _, ev := range agg.Events {
		if ev.Kind == telemetry.EvRankFail.String() && ev.B == 0xdead {
			marker = true
		}
	}
	if !marker {
		t.Fatalf("flight-recorder marker event missing from the post-mortem aggregate: %+v", agg.Events)
	}
}
