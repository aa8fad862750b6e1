//go:build unix && !linux

package sock

import "syscall"

// socket and accept set close-on-exec under syscall.ForkLock, so no process
// started meanwhile inherits the descriptor, then make it non-blocking.
func socket(family int) (int, error) {
	syscall.ForkLock.RLock()
	fd, err := syscall.Socket(family, syscall.SOCK_STREAM, 0)
	if err == nil {
		syscall.CloseOnExec(fd)
	}
	syscall.ForkLock.RUnlock()
	return nonblock(fd, err)
}

func accept(fd int) (int, error) {
	syscall.ForkLock.RLock()
	nfd, _, err := syscall.Accept(fd)
	if err == nil {
		syscall.CloseOnExec(nfd)
	}
	syscall.ForkLock.RUnlock()
	return nonblock(nfd, err)
}

// socketpair is never reached here: only an inheriting world uses it, and
// such a world's arena needs Linux (mprun).
func socketpair() ([2]int, error) { return [2]int{-1, -1}, syscall.ENOSYS }

func nonblock(fd int, err error) (int, error) {
	if err != nil {
		return -1, err
	}
	if err := syscall.SetNonblock(fd, true); err != nil {
		syscall.Close(fd)
		return -1, err
	}
	return fd, nil
}
