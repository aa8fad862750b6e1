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

// socketpair makes a spawned rank's control stream: a spawned net world
// runs here too, though an arena needs Linux (mprun).
func socketpair() ([2]int, error) {
	syscall.ForkLock.RLock()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err == nil {
		syscall.CloseOnExec(fds[0])
		syscall.CloseOnExec(fds[1])
	}
	syscall.ForkLock.RUnlock()
	if err != nil {
		return fds, err
	}
	if fds[0], err = nonblock(fds[0], nil); err != nil {
		syscall.Close(fds[1])
		return fds, err
	}
	if fds[1], err = nonblock(fds[1], nil); err != nil {
		syscall.Close(fds[0])
	}
	return fds, err
}

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
