package mprun

import (
	"math"
	"syscall"
	"time"
	"unsafe"
)

// The futex operations, linux/futex.h. Neither carries FUTEX_PRIVATE_FLAG:
// each process maps the word at its own address, so the kernel must key the
// wait on the page.
const (
	futexWait = 0 // FUTEX_WAIT
	futexWake = 1 // FUTEX_WAKE
)

// futexSleep blocks the calling thread while *w holds val, for at most d;
// the caller judges every return by reading the word again. The bracket is
// the one the runtime puts around its own futex sleeps: entersyscallblock
// hands this thread's P to another thread at once, so a sleeper never holds a
// P the process's wire service or network poller needs. syscall.Syscall6
// leaves the P until the runtime's monitor retakes it, up to 10 ms later
// (EXPERIMENTS.md "PR 27"). Nosplit, as Syscall6 is: the stack must not grow
// inside the bracket.
//
//go:nosplit
func futexSleep(w *uint32, val uint32, d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	entersyscallblock()
	syscall.RawSyscall6(syscall.SYS_FUTEX, uintptr(unsafe.Pointer(w)), futexWait, uintptr(val),
		uintptr(unsafe.Pointer(&ts)), 0, 0)
	exitsyscall()
}

// futexWakeAll wakes every thread of every process asleep on w and reports
// whether the call succeeded.
func futexWakeAll(w *uint32) bool {
	_, _, e := syscall.Syscall6(syscall.SYS_FUTEX, uintptr(unsafe.Pointer(w)), futexWake, math.MaxInt32, 0, 0, 0)
	return e == 0
}

// The runtime keeps both reachable by linkname (go.dev/issue/67401).
//
//go:linkname entersyscallblock runtime.entersyscallblock
func entersyscallblock()

//go:linkname exitsyscall runtime.exitsyscall
func exitsyscall()
