package simnet_test

import (
	"testing"

	"fompi/internal/simnet"
	"fompi/internal/simnet/pacetest"
)

// TestPacerOverFabric runs the behavioural pacing cases over heap tables and
// the in-process hook (a channel and a timer per rank).
func TestPacerOverFabric(t *testing.T) {
	pacetest.Run(t, func(t *testing.T, n int, window int64, blocker int) pacetest.World {
		f := simnet.NewFabric(n, 4)
		f.SetPacing(window)
		return pacetest.World{Blocker: f.Pacer(), Others: f.Pacer(), Abort: func() { f.Abort(-1) }}
	})
}
