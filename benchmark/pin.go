package main

import (
	"math/bits"
	"path/filepath"
	"strconv"
	"syscall"
	"unsafe"
)

// Placement of a cross-process world. Load is one closed loop, so exactly
// one rank is runnable at any instant and the ranks need no second CPU.
// What a second CPU adds is the kernel's choice, from world to world and
// minute to minute, between waking the peer where the waker runs (a context
// switch) and on the other CPU (an interrupt to a halted vCPU, which the
// hypervisor delivers when its other tenants let it). On the 2-vCPU
// development host an 8 B put over loopback takes 19-20 µs with both ranks
// on one CPU, 62-64 µs with a CPU each, and drifts between 24 and 31 µs
// when the kernel places them. Every rank process therefore pins itself to
// the first CPU it is allowed on.

type cpuMask [16]uint64 // 1024 CPUs, the kernel's default mask size

// firstCPU is the lowest-numbered CPU the calling thread may run on, or -1
// if the kernel will not say.
func firstCPU() int {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return -1
	}
	for i, w := range m {
		if w != 0 {
			return 64*i + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// pinProcess restricts every thread of this process to firstCPU. Threads
// the runtime starts later inherit the mask of the thread that starts them.
// A host that refuses is left as it was: the run is then merely less steady.
func pinProcess() {
	cpu := firstCPU()
	if cpu < 0 {
		return
	}
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	tasks, _ := filepath.Glob("/proc/self/task/*")
	for _, t := range tasks {
		if tid, err := strconv.Atoi(filepath.Base(t)); err == nil {
			syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
		}
	}
}
