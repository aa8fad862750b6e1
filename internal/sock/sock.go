// Package sock opens the process transport's stream sockets — TCP listen,
// accept and dial, and the socketpair a launcher shares with each rank it
// spawns — through package syscall, so a program that runs ranks links
// neither package net nor, through it, the cgo resolver (runtime/cgo): a cgo
// binary pays about 0.5 ms more per process start, once per rank of every
// world (DESIGN.md §10, "The two boots").
//
// Each socket is an *os.File over a non-blocking, close-on-exec descriptor,
// so Read, Write, Close and the three deadline setters go through the
// runtime poller exactly as net's do, and a deadline that passes is
// os.ErrDeadlineExceeded. TCP sockets are made with TCP_NODELAY and
// listeners with SO_REUSEADDR, net's defaults.
//
// An address is host:port, where the host is an IP address, empty (every
// interface), or a name /etc/hosts lists. A name only DNS knows is refused
// with an error that says to pass an address.
package sock

import (
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Conn is a connected stream: a socket Dial or Accept made, a wrapper of one
// (faultnet's), or any net.Conn a test hands in, such as net.Pipe's.
type Conn interface {
	io.ReadWriteCloser
	SetDeadline(t time.Time) error
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// Listener is a listening TCP socket. Addr is how the other end reaches it,
// the bound ip:port. SetDeadline bounds the Accepts it precedes, and a
// deadline in the past wakes a parked one.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	SetDeadline(t time.Time) error
	Addr() string
}

// hostsFile is where a host name resolves (lookupHost).
var hostsFile = "/etc/hosts"

// listenBacklog asks for the deepest accept queue the kernel allows (it
// clamps to net.core.somaxconn): a world's ranks all dial the coordinator at
// once. 1<<16 - 1, as net asks: kernels before 4.1 keep the backlog in a
// uint16, where 1<<16 wraps to an empty queue.
const listenBacklog = 1<<16 - 1

type listener struct {
	f    *os.File
	addr string
}

// Listen opens a listener on network "tcp" at address. A host left empty
// listens on every interface, IPv6 and IPv4 both where the host has IPv6;
// port 0 picks a free one, which Addr reports.
func Listen(network, address string) (Listener, error) {
	if network != "tcp" {
		return nil, opError("listen", address, fmt.Errorf("network %q is not tcp", network))
	}
	host, port, err := splitHostPort(address)
	if err != nil {
		return nil, opError("listen", address, err)
	}
	wildcard := host == ""
	family, sa := sockaddr(netip.AddrPortFrom(netip.IPv6Unspecified(), port))
	if !wildcard {
		ips, err := lookupHost(host)
		if err != nil {
			return nil, opError("listen", address, err)
		}
		family, sa = sockaddr(netip.AddrPortFrom(ips[0], port))
	}
	fd, err := socket(family)
	if wildcard && err == syscall.EAFNOSUPPORT {
		family, sa = sockaddr(netip.AddrPortFrom(netip.IPv4Unspecified(), port))
		fd, err = socket(family)
	}
	if err != nil {
		return nil, opError("listen", address, os.NewSyscallError("socket", err))
	}
	err = setup(fd, family, wildcard)
	if err == nil {
		err = os.NewSyscallError("bind", syscall.Bind(fd, sa))
	}
	if err == nil {
		err = os.NewSyscallError("listen", syscall.Listen(fd, listenBacklog))
	}
	if err != nil {
		syscall.Close(fd)
		return nil, opError("listen", address, err)
	}
	l := &listener{addr: address}
	if local, err := syscall.Getsockname(fd); err == nil {
		l.addr = addrPort(local).String()
	}
	l.f = os.NewFile(uintptr(fd), "tcp "+l.addr)
	return l, nil
}

// setup applies net's defaults to a fresh socket: SO_REUSEADDR on a listener
// (a restarted coordinator rebinds a port its last world left in TIME_WAIT),
// and a wildcard IPv6 one takes IPv4 too.
func setup(fd, family int, wildcard bool) error {
	if wildcard && family == syscall.AF_INET6 {
		if err := syscall.SetsockoptInt(fd, syscall.IPPROTO_IPV6, syscall.IPV6_V6ONLY, 0); err != nil {
			return os.NewSyscallError("setsockopt", err)
		}
	}
	return os.NewSyscallError("setsockopt", syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1))
}

func (l *listener) Addr() string                  { return l.addr }
func (l *listener) SetDeadline(t time.Time) error { return l.f.SetDeadline(t) }
func (l *listener) Close() error                  { return l.f.Close() }

// Accept waits, through the runtime poller and under the listener's
// deadline, for the next connection.
func (l *listener) Accept() (Conn, error) {
	rc, err := l.f.SyscallConn()
	if err != nil {
		return nil, opError("accept", l.addr, err)
	}
	nfd, aerr := -1, error(nil)
	err = rc.Read(func(fd uintptr) bool {
		for {
			nfd, aerr = accept(int(fd))
			// ECONNABORTED: a queued connection reset before its accept.
			if aerr != syscall.EINTR && aerr != syscall.ECONNABORTED {
				return aerr != syscall.EAGAIN
			}
		}
	})
	if err == nil && aerr != nil {
		err = os.NewSyscallError("accept", aerr)
	}
	if err != nil {
		return nil, opError("accept", l.addr, err)
	}
	f, err := newConn(nfd, l.addr)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// newConn wraps a connected TCP descriptor with TCP_NODELAY set: the
// transports' requests are latency-bound exchanges, not bulk streams.
func newConn(fd int, addr string) (*os.File, error) {
	if err := syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1); err != nil {
		syscall.Close(fd)
		return nil, opError("setsockopt", addr, os.NewSyscallError("setsockopt", err))
	}
	return os.NewFile(uintptr(fd), "tcp "+addr), nil
}

// Dial connects to address on network "tcp" within timeout (zero: none). A
// host name listing several addresses in /etc/hosts is tried in turn, IPv4
// first, until one answers.
func Dial(network, address string, timeout time.Duration) (Conn, error) {
	if network != "tcp" {
		return nil, opError("dial", address, fmt.Errorf("network %q is not tcp", network))
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	host, port, err := splitHostPort(address)
	if err != nil {
		return nil, opError("dial", address, err)
	}
	ips := []netip.Addr{netip.IPv4Unspecified()} // the local system, as net dials it
	if host != "" {
		if ips, err = lookupHost(host); err != nil {
			return nil, opError("dial", address, err)
		}
	}
	for _, ip := range ips {
		family, sa := sockaddr(netip.AddrPortFrom(ip, port))
		var c Conn
		if c, err = dial(address, family, sa, deadline); err == nil {
			return c, nil
		}
	}
	return nil, err
}

// dial makes one non-blocking connect and waits for it through the poller,
// under deadline. A connect is done once the socket is writable with no
// SO_ERROR and a peer: the poller can wake a waiter early.
func dial(address string, family int, sa syscall.Sockaddr, deadline time.Time) (Conn, error) {
	fd, err := socket(family)
	if err != nil {
		return nil, opError("dial", address, os.NewSyscallError("socket", err))
	}
	err = syscall.Connect(fd, sa)
	f, cerr := newConn(fd, address)
	if cerr != nil {
		return nil, cerr
	}
	switch err {
	case nil, syscall.EISCONN:
		return f, nil
	case syscall.EINPROGRESS, syscall.EALREADY, syscall.EINTR:
		// Under way (a signal does not stop it): wait for it below.
	default:
		f.Close()
		return nil, opError("dial", address, os.NewSyscallError("connect", err))
	}
	rc, err := f.SyscallConn()
	var soErr error
	if err == nil {
		f.SetWriteDeadline(deadline)
		err = rc.Write(func(fd uintptr) bool {
			e, gerr := syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_ERROR)
			switch {
			case gerr != nil:
				soErr = os.NewSyscallError("getsockopt", gerr)
			case e == 0:
				_, gerr = syscall.Getpeername(int(fd))
				return gerr == nil
			case syscall.Errno(e) == syscall.EINPROGRESS || syscall.Errno(e) == syscall.EALREADY || syscall.Errno(e) == syscall.EINTR:
				return false
			default:
				soErr = os.NewSyscallError("connect", syscall.Errno(e))
			}
			return true
		})
		f.SetWriteDeadline(time.Time{})
	}
	if err == nil {
		err = soErr
	}
	if err != nil {
		f.Close()
		return nil, opError("dial", address, err)
	}
	return f, nil
}

// LocalAddr is the address a TCP connection is bound to (getsockname). c is
// a socket of this package's, or a wrapper that forwards SyscallConn.
func LocalAddr(c Conn) (netip.AddrPort, error) {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return netip.AddrPort{}, errors.New("sock: not a socket")
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return netip.AddrPort{}, err
	}
	var sa syscall.Sockaddr
	var gerr error
	if err := rc.Control(func(fd uintptr) { sa, gerr = syscall.Getsockname(int(fd)) }); err != nil {
		return netip.AddrPort{}, err
	}
	if gerr != nil {
		return netip.AddrPort{}, os.NewSyscallError("getsockname", gerr)
	}
	ap := addrPort(sa)
	if !ap.IsValid() {
		return netip.AddrPort{}, errors.New("sock: not a TCP socket")
	}
	return ap, nil
}

// opError reports a failed operation as net words it: "dial 10.0.0.2:7077:
// connect: connection refused". errors.Is sees through it.
func opError(op, address string, err error) error {
	return &os.PathError{Op: op, Path: address, Err: err}
}

// splitHostPort splits host:port, [host]:port for an IPv6 literal; the port
// is a number.
func splitHostPort(address string) (string, uint16, error) {
	i := strings.LastIndexByte(address, ':')
	if i < 0 {
		return "", 0, errors.New("missing port")
	}
	host, port := address[:i], address[i+1:]
	if strings.HasPrefix(host, "[") && strings.HasSuffix(host, "]") {
		host = host[1 : len(host)-1]
	}
	p, err := strconv.ParseUint(port, 10, 16)
	if err != nil {
		return "", 0, fmt.Errorf("port %q is not a number", port)
	}
	return host, uint16(p), nil
}

// lookupHost resolves host: an IP address is itself, a name is every address
// /etc/hosts lists it under, IPv4 first. Nothing asks DNS.
func lookupHost(host string) ([]netip.Addr, error) {
	if ip, err := netip.ParseAddr(host); err == nil {
		return []netip.Addr{ip.Unmap()}, nil
	}
	b, err := os.ReadFile(hostsFile)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	name := strings.TrimSuffix(host, ".")
	var ips []netip.Addr
	for line := range strings.Lines(string(b)) {
		line, _, _ = strings.Cut(line, "#")
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		ip, err := netip.ParseAddr(f[0])
		if err != nil {
			continue
		}
		for _, h := range f[1:] {
			if strings.EqualFold(strings.TrimSuffix(h, "."), name) {
				ips = append(ips, ip.Unmap())
				break
			}
		}
	}
	if len(ips) == 0 {
		return nil, fmt.Errorf("host %q is not an IP address and %s does not list it; pass an address (this transport resolves no DNS)", host, hostsFile)
	}
	slices.SortStableFunc(ips, func(a, b netip.Addr) int {
		switch {
		case a.Is4() == b.Is4():
			return 0
		case a.Is4():
			return -1
		}
		return 1
	})
	return ips, nil
}

// sockaddr is ap as the kernel takes it. An IPv6 zone must be an interface
// index: naming an interface needs net.
func sockaddr(ap netip.AddrPort) (int, syscall.Sockaddr) {
	ip := ap.Addr()
	if ip.Is4() {
		return syscall.AF_INET, &syscall.SockaddrInet4{Port: int(ap.Port()), Addr: ip.As4()}
	}
	sa := &syscall.SockaddrInet6{Port: int(ap.Port()), Addr: ip.As16()}
	if id, err := strconv.ParseUint(ip.Zone(), 10, 32); err == nil {
		sa.ZoneId = uint32(id)
	}
	return syscall.AF_INET6, sa
}

// addrPort is a TCP socket address as netip reads it, the zero AddrPort for
// any other.
func addrPort(sa syscall.Sockaddr) netip.AddrPort {
	switch sa := sa.(type) {
	case *syscall.SockaddrInet4:
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), uint16(sa.Port))
	case *syscall.SockaddrInet6:
		ip := netip.AddrFrom16(sa.Addr)
		if sa.ZoneId != 0 {
			ip = ip.WithZone(strconv.FormatUint(uint64(sa.ZoneId), 10))
		}
		return netip.AddrPortFrom(ip, uint16(sa.Port))
	}
	return netip.AddrPort{}
}
