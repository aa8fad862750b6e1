package rankio

import (
	"testing"
	"time"
)

func TestParseTimeouts(t *testing.T) {
	tm, err := ParseTimeouts("heartbeat=500ms, stale=3s,optimeout=2s,ctlidle=6s")
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	want := Timeouts{500 * time.Millisecond, 3 * time.Second, 2 * time.Second, 6 * time.Second}
	if tm != want {
		t.Fatalf("parsed %+v, want %+v", tm, want)
	}
	// stale must exceed the heartbeat cadence or every rank is "dead".
	for _, bad := range []string{"heartbeat", "stale=-1s", "optimeout=0s", "warp=9s", "heartbeat=fast", "heartbeat=2s,stale=1s"} {
		if _, err := ParseTimeouts(bad); err == nil {
			t.Fatalf("spec %q parsed without error", bad)
		}
	}
	t.Setenv(EnvTimeouts, "heartbeat=250ms,optimeout=4s")
	got, err := ResolveTimeouts()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if got.HeartbeatEvery != 250*time.Millisecond || got.OpTimeout != 4*time.Second ||
		got.HeartbeatStale != defaultTimeouts.HeartbeatStale || got.CtlIdleTimeout != defaultTimeouts.CtlIdleTimeout {
		t.Fatalf("resolution layered wrong: %+v", got)
	}
}
