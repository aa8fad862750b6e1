package simnet

import (
	"errors"
	"fmt"
)

// ErrPeerFailed is the abort panic/error carrying *which* rank took the
// world down. The distributed backends deliver it instead of the bare
// ErrAborted once the coordinator's RANKFAIL verdict names the dead rank, and
// the fabric once a rank's own panic does, so blocked primitives unwind with
// an error that tells the operator who died.
//
// It matches errors.Is(err, ErrAborted): abort classification written
// against the sentinel keeps working, and layers that care can errors.As
// out the rank.
type ErrPeerFailed struct {
	Rank int // the failed rank
}

func (e *ErrPeerFailed) Error() string {
	return fmt.Sprintf("simnet: peer rank %d failed", e.Rank)
}

// Is makes every peer failure an abort: errors.Is(err, ErrAborted) holds.
func (e *ErrPeerFailed) Is(target error) bool { return target == ErrAborted }

// IsAbortPanic reports whether a recovered panic value is the world-abort
// unwind — bare ErrAborted or an *ErrPeerFailed. Rank recover blocks use it
// so abort classification survives both panic shapes.
func IsAbortPanic(v any) bool {
	err, ok := v.(error)
	return ok && errors.Is(err, ErrAborted)
}
