package simnet_test

import (
	"sync/atomic"
	"testing"

	"fompi/internal/simnet"
	"fompi/internal/simnet/doortest"
)

// TestDoorOverFabric runs the behavioural door cases over the in-process
// fabric: its ports and its Parker. The abort blames a rank, as the
// in-process runner's does for a rank that panicked.
func TestDoorOverFabric(t *testing.T) {
	doortest.Run(t, func(t *testing.T, n int) doortest.World {
		f := simnet.NewFabric(n, 4)
		v := doortest.View{Hook: f.Hook(), Port: f.Port}
		return doortest.World{Waiter: v, Writer: v, Abort: func() { f.Abort(3) }, Blamed: 3}
	})
}

// TestDoorOverLossyHook runs them over heap ports and a parker whose pokes
// the test can swallow and whose abort blames a rank: what a backend with an
// unreliable wakeup channel and a failure verdict looks like to the door.
func TestDoorOverLossyHook(t *testing.T) {
	doortest.Run(t, func(t *testing.T, n int) doortest.World {
		var drop, aborted atomic.Bool
		park := simnet.NewParker(n)
		hook := park.Hook(func() error {
			if aborted.Load() {
				return &simnet.ErrPeerFailed{Rank: 3}
			}
			return nil
		})
		poke := hook.Poke
		hook.Poke = func(s int) bool { return !drop.CompareAndSwap(true, false) && poke(s) }
		ports := make([]simnet.Port, n)
		v := doortest.View{Hook: hook, Port: func(r int) *simnet.Port { return &ports[r] }}
		return doortest.World{Waiter: v, Writer: v, Blamed: 3,
			Abort:    func() { aborted.Store(true); park.Abort() },
			DropPoke: func() { drop.Store(true) }}
	})
}
