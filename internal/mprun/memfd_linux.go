package mprun

import (
	"os"
	"syscall"
	"unsafe"
)

// memfd creates an anonymous memory file, close-on-exec (memfd_create(2)
// with MFD_CLOEXEC): shared memory named in no directory.
func memfd(name string) (*os.File, error) {
	p, err := syscall.BytePtrFromString(name)
	if err != nil {
		return nil, err
	}
	fd, _, e := syscall.Syscall(sysMemfdCreate, uintptr(unsafe.Pointer(p)), 1, 0)
	if e != 0 {
		return nil, os.NewSyscallError("memfd_create", e)
	}
	return os.NewFile(fd, name), nil
}
