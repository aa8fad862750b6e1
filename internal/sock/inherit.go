package sock

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
)

// Pairs makes n connected pairs of Unix-domain stream sockets for a process
// and the n children it starts: locals[i] is this process's end of pair i,
// and children[i] is for child i alone to inherit (exec.Cmd.ExtraFiles). The
// parent closes children[i] once child i has started: a copy left open here
// would keep locals[i]'s stream alive past the child's exit. No end has a
// name, so no other process can reach the conversations.
func Pairs(n int) (locals []Conn, children []*os.File, err error) {
	for range n {
		fds, err := socketpair()
		if err != nil {
			for i := range locals {
				locals[i].Close()
				children[i].Close()
			}
			return nil, nil, os.NewSyscallError("socketpair", err)
		}
		locals = append(locals, os.NewFile(uintptr(fds[0]), "pair"))
		children = append(children, os.NewFile(uintptr(fds[1]), "pair (child end)"))
	}
	return locals, children, nil
}

// Adopt makes fd, a connected stream socket this process inherited (a
// Pairs child end), a Conn on the runtime poller: non-blocking, and
// close-on-exec, so that no process this one starts inherits it in turn.
func Adopt(fd int) (Conn, error) {
	at := "fd " + strconv.Itoa(fd)
	if typ, err := syscall.GetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_TYPE); err != nil || typ != syscall.SOCK_STREAM {
		return nil, opError("adopt", at, fmt.Errorf("not an inherited stream socket (type %d, %v)", typ, err))
	}
	syscall.CloseOnExec(fd)
	if err := syscall.SetNonblock(fd, true); err != nil {
		return nil, opError("adopt", at, os.NewSyscallError("fcntl", err))
	}
	return os.NewFile(uintptr(fd), at), nil
}
