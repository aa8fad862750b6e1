package rankio

import (
	"strings"
	"testing"
	"time"
)

func TestParseTimeouts(t *testing.T) {
	tm, err := ParseTimeouts("heartbeat=500ms, stale=3s")
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	want := Timeouts{500 * time.Millisecond, 3 * time.Second}
	if tm != want {
		t.Fatalf("parsed %+v, want %+v", tm, want)
	}
	if got := tm.SilenceBudget(); got != 4*time.Second {
		t.Fatalf("silence budget %v, want stale + 2×heartbeat = 4s", got)
	}
	// stale must exceed the heartbeat cadence or every rank is "dead".
	for _, bad := range []string{"heartbeat", "stale=-1s", "stale=0s", "warp=9s", "heartbeat=fast", "heartbeat=2s,stale=1s"} {
		if _, err := ParseTimeouts(bad); err == nil {
			t.Fatalf("spec %q parsed without error", bad)
		}
	}
	// Any other key, the budgets that follow from the heartbeat included, is
	// refused by the name the spec used.
	if _, err := ParseTimeouts("stale=3s,budget=2s"); err == nil || !strings.Contains(err.Error(), `"budget"`) {
		t.Fatalf("a spec setting a derived budget parsed as %v, want a refusal naming the key", err)
	}
	t.Setenv(EnvTimeouts, "heartbeat=250ms")
	got, err := ResolveTimeouts()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if got.HeartbeatEvery != 250*time.Millisecond || got.HeartbeatStale != defaultTimeouts.HeartbeatStale {
		t.Fatalf("resolution layered wrong: %+v", got)
	}
}
