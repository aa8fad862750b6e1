package sock

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// Pairs makes n connected pairs of Unix-domain stream sockets for a process
// and the n children it starts: ln hands out the local ends in order, and
// children[i] is for child i alone to inherit (exec.Cmd.ExtraFiles). The
// parent closes children[i] once child i has started: a copy left open here
// would keep the local end's stream alive past the child's exit. No end has
// a name, so no other process can reach the conversations. ln reports
// network and addr, what the children are told to find their ends by.
func Pairs(network, addr string, n int) (ln Listener, children []*os.File, err error) {
	s := &streams{network: network, addr: addr, conns: make(chan Conn, n)}
	for range n {
		fds, err := socketpair()
		if err != nil {
			s.Close()
			for _, c := range children {
				c.Close()
			}
			return nil, nil, os.NewSyscallError("socketpair", err)
		}
		s.conns <- os.NewFile(uintptr(fds[0]), "pair")
		children = append(children, os.NewFile(uintptr(fds[1]), "pair (child end)"))
	}
	return s, children, nil
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

// streams is the Listener of Pairs: Accept hands out the connected local
// ends, then waits out its deadline as an idle listener does. Accept and
// SetDeadline are for one goroutine; Close closes the ends not yet accepted.
type streams struct {
	network, addr string
	conns         chan Conn // not accepted yet; closed by Close
	deadline      time.Time
	once          sync.Once
}

func (s *streams) Network() string               { return s.network }
func (s *streams) Addr() string                  { return s.addr }
func (s *streams) SetDeadline(t time.Time) error { s.deadline = t; return nil }

func (s *streams) Accept() (Conn, error) {
	var expired <-chan time.Time
	if !s.deadline.IsZero() {
		expired = time.After(time.Until(s.deadline))
	}
	select {
	case c, ok := <-s.conns:
		if ok {
			return c, nil
		}
		return nil, opError("accept", s.addr, os.ErrClosed)
	case <-expired:
		return nil, opError("accept", s.addr, os.ErrDeadlineExceeded)
	}
}

func (s *streams) Close() error {
	s.once.Do(func() { close(s.conns) })
	for c := range s.conns {
		c.Close()
	}
	return nil
}
