//go:build !linux

package mprun

import (
	"errors"
	"os"
	"time"
)

// errNoFutex is why CreateAnon refuses here: a host-mate is woken through a
// futex on the shared segment, and there is no second wake mechanism.
var errNoFutex = errors.New("mprun: a shared-memory arena needs Linux futex(2); run the net placement or the in-process backend")

// Never called: no arena is ever created or mapped on this OS.
func futexSleep(*uint32, uint32, time.Duration) {}
func futexWakeAll(*uint32) bool                 { return false }
func memfd(string) (*os.File, error)            { return nil, errNoFutex }
