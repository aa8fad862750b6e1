package sock

import "syscall"

// socket and accept make descriptors non-blocking and close-on-exec in the
// call itself: a rank spawned meanwhile inherits none.
func socket(family int) (int, error) {
	return syscall.Socket(family, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
}

func accept(fd int) (int, error) {
	nfd, _, err := syscall.Accept4(fd, syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC)
	return nfd, err
}
