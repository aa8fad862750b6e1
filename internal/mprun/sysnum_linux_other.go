//go:build linux && !amd64 && !arm64

package mprun

import "runtime"

// sysMemfdCreate on every other Linux port, from the kernel's tables:
// syscall names it on only some of them.
var sysMemfdCreate = map[string]uintptr{
	"386": 356, "arm": 385, "loong64": 279, "mips": 4354, "mipsle": 4354, "mips64": 5314, "mips64le": 5314,
	"ppc64": 360, "ppc64le": 360, "riscv64": 279, "s390x": 350,
}[runtime.GOARCH]
