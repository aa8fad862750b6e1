package sock

import (
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"
)

// pair listens on network at addr, dials it and returns both ends.
func pair(t *testing.T, network, addr string) (ln Listener, client, server Conn) {
	t.Helper()
	ln, err := Listen(network, addr)
	if err != nil {
		t.Fatalf("Listen(%s, %s): %v", network, addr, err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := make(chan Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			t.Errorf("Accept: %v", err)
		}
		accepted <- c
	}()
	if client, err = Dial(network, ln.Addr(), time.Second); err != nil {
		t.Fatalf("Dial(%s, %s): %v", network, ln.Addr(), err)
	}
	t.Cleanup(func() { client.Close() })
	if server = <-accepted; server == nil {
		t.FailNow()
	}
	t.Cleanup(func() { server.Close() })
	return ln, client, server
}

// inherited returns both ends of a pair as a spawned child and its parent
// hold them: the child's adopted from a descriptor of its own (a dup stands
// in for the inheritance), the parent's the local end Pairs made.
func inherited(t *testing.T) (child, parent Conn) {
	t.Helper()
	locals, children, err := Pairs(1)
	if err != nil {
		t.Fatal(err)
	}
	parent = locals[0]
	t.Cleanup(func() { parent.Close() })
	fd, err := syscall.Dup(int(children[0].Fd()))
	children[0].Close()
	if err != nil {
		t.Fatal(err)
	}
	if child, err = Adopt(fd); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { child.Close() })
	return child, parent
}

// TestRoundTrip: bytes cross a TCP connection and an inherited Unix-domain
// socketpair both ways, and a closed end reads as io.EOF at the other.
func TestRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(t *testing.T) (client, server Conn)
	}{
		{"tcp", func(t *testing.T) (Conn, Conn) { _, c, s := pair(t, "tcp", "127.0.0.1:0"); return c, s }},
		{"unix", inherited},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, server := tc.open(t)
			if _, err := client.Write([]byte("ping")); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 4)
			if _, err := io.ReadFull(server, buf); err != nil || string(buf) != "ping" {
				t.Fatalf("server read %q, %v", buf, err)
			}
			server.Write([]byte("pong"))
			if _, err := io.ReadFull(client, buf); err != nil || string(buf) != "pong" {
				t.Fatalf("client read %q, %v", buf, err)
			}
			server.Close()
			if n, err := client.Read(buf); n != 0 || err != io.EOF {
				t.Fatalf("read after the peer closed: %d, %v; want 0, io.EOF", n, err)
			}
		})
	}
}

// TestAddrs: a TCP listener on port 0 reports the port it bound, and the
// accepted end of a connection is bound to the listener's address.
func TestAddrs(t *testing.T) {
	ln, client, server := pair(t, "tcp", "127.0.0.1:0")
	at, err := netip.ParseAddrPort(ln.Addr())
	if err != nil || at.Port() == 0 || at.Addr() != netip.MustParseAddr("127.0.0.1") {
		t.Fatalf("listener Addr() = %q (%v), want 127.0.0.1 and a bound port", ln.Addr(), err)
	}
	if local, err := LocalAddr(client); err != nil || !local.Addr().IsLoopback() || local.Port() == 0 {
		t.Fatalf("client end bound to %v (%v), want a loopback address and a port", local, err)
	}
	if serverAt, err := LocalAddr(server); err != nil || serverAt != at {
		t.Fatalf("server end bound to %v (%v), want the listener's %v", serverAt, err, at)
	}
	if _, err := LocalAddr(struct{ Conn }{client}); err == nil {
		t.Fatal("LocalAddr of a Conn that is no socket succeeded")
	}
}

// TestSocketOptions: every descriptor is non-blocking and close-on-exec (a
// spawned rank inherits none but the ends it is handed), a TCP connection has
// Nagle off at both ends and a listener SO_REUSEADDR on, as net makes them.
func TestSocketOptions(t *testing.T) {
	ln, client, server := pair(t, "tcp", "127.0.0.1:0")
	child, parent := inherited(t)
	for name, f := range map[string]any{"listener": ln.(*listener).f, "dialed": client, "accepted": server,
		"adopted": child, "pair": parent} {
		rc, err := f.(syscall.Conn).SyscallConn()
		if err != nil {
			t.Fatal(err)
		}
		rc.Control(func(fd uintptr) {
			fdFlags, _, _ := syscall.Syscall(syscall.SYS_FCNTL, fd, syscall.F_GETFD, 0)
			flFlags, _, _ := syscall.Syscall(syscall.SYS_FCNTL, fd, syscall.F_GETFL, 0)
			if fdFlags&syscall.FD_CLOEXEC == 0 || flFlags&syscall.O_NONBLOCK == 0 {
				t.Errorf("%s: fd flags %#x, status flags %#x: want close-on-exec and non-blocking", name, fdFlags, flFlags)
			}
			opt, level := syscall.TCP_NODELAY, syscall.IPPROTO_TCP
			switch name {
			case "adopted", "pair":
				return
			case "listener":
				opt, level = syscall.SO_REUSEADDR, syscall.SOL_SOCKET
			}
			if v, err := syscall.GetsockoptInt(int(fd), level, opt); err != nil || v == 0 {
				t.Errorf("%s: option %d is %d (%v), want on", name, opt, v, err)
			}
		})
	}
}

// TestDeadlines: an Accept and a Read past their deadlines fail with
// os.ErrDeadlineExceeded, and a cleared deadline lets the Read go on.
func TestDeadlines(t *testing.T) {
	ln, client, server := pair(t, "tcp", "127.0.0.1:0")
	ln.SetDeadline(time.Now().Add(20 * time.Millisecond))
	if _, err := ln.Accept(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Accept past its deadline: %v, want os.ErrDeadlineExceeded", err)
	}
	server.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	buf := make([]byte, 1)
	if _, err := server.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Read past its deadline: %v, want os.ErrDeadlineExceeded", err)
	}
	server.SetReadDeadline(time.Time{})
	client.Write([]byte{7})
	if _, err := server.Read(buf); err != nil || buf[0] != 7 {
		t.Fatalf("Read after the deadline was cleared: %v, %v", buf, err)
	}
}

// TestCloseUnblocksAccept: closing a listener ends an Accept parked on it.
func TestCloseUnblocksAccept(t *testing.T) {
	ln, err := Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() {
		_, err := ln.Accept()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	ln.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Accept on a closed listener returned a connection")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Accept still parked after Close")
	}
}

// TestPairs: each local end talks to its own child end, in order, and a
// closed local end reads as io.EOF at its child.
func TestPairs(t *testing.T) {
	locals, children, err := Pairs(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range locals {
		defer locals[i].Close()
		defer children[i].Close()
	}
	for i, c := range locals {
		c.Write([]byte{byte(i)})
		b := make([]byte, 1)
		if _, err := children[i].Read(b); err != nil || b[0] != byte(i) {
			t.Fatalf("child %d read %v, %v from the %d-th local end", i, b, err, i)
		}
	}
	locals[1].Close()
	if n, err := children[1].Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("child 1 read %d, %v after its local end closed; want io.EOF", n, err)
	}
	if _, err := locals[0].Write([]byte{1}); err != nil {
		t.Fatalf("write to local end 0 after local end 1 closed: %v", err)
	}
}

// TestAdoptRefusesWhatIsNoStream: a descriptor that is no stream socket — a
// pipe, say, where an inherited control end was expected — is refused by
// name, not read as one.
func TestAdoptRefusesWhatIsNoStream(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	defer w.Close()
	if c, err := Adopt(int(r.Fd())); err == nil || !strings.Contains(err.Error(), "fd ") {
		t.Fatalf("Adopt of a pipe: %v, %v; want a refusal naming the descriptor", c, err)
	}
}

// TestAdoptedStreamIsNotInherited: a stream a rank adopted — here a dup of
// a pair's child end, which, like an inherited descriptor, is not
// close-on-exec — is close-on-exec once adopted, so a process the rank
// starts does not hold its control stream open past the rank's exit.
func TestAdoptedStreamIsNotInherited(t *testing.T) {
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to look a child's descriptors up in")
	}
	locals, kids, err := Pairs(1)
	if err != nil {
		t.Fatal(err)
	}
	defer locals[0].Close()
	fd, err := syscall.Dup(int(kids[0].Fd()))
	kids[0].Close()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Adopt(fd)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := exec.Command("/bin/sh", "-c", fmt.Sprintf("[ -e /proc/self/fd/%d ]", fd)).Run(); err == nil {
		t.Fatalf("a child of the adopting process inherited the adopted stream (fd %d)", fd)
	}
}

// TestDialRefused: a dial to a port nobody listens on fails at once with the
// kernel's reason, and a network other than tcp is refused by name.
func TestDialRefused(t *testing.T) {
	ln, err := Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr()
	ln.Close()
	if _, err := Dial("tcp", addr, time.Second); !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("dial of a closed port: %v, want ECONNREFUSED", err)
	}
	for _, open := range []func() error{
		func() error { _, err := Dial("unix", filepath.Join(t.TempDir(), "s"), time.Second); return err },
		func() error { _, err := Listen("unix", filepath.Join(t.TempDir(), "s")); return err },
	} {
		if err := open(); err == nil || !strings.Contains(err.Error(), `network "unix" is not tcp`) {
			t.Fatalf("a unix socket: %v, want the network refused", err)
		}
	}
}

// TestWildcardListen: an empty host listens on every interface, reachable
// over IPv4 loopback, and Addr names the unspecified address.
func TestWildcardListen(t *testing.T) {
	ln, err := Listen("tcp", ":0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	at, err := netip.ParseAddrPort(ln.Addr())
	if err != nil || !at.Addr().IsUnspecified() {
		t.Fatalf("wildcard listener Addr() = %q (%v), want an unspecified address", ln.Addr(), err)
	}
	go func() {
		if c, err := ln.Accept(); err == nil {
			c.Close()
		}
	}()
	c, err := Dial("tcp", netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), at.Port()).String(), time.Second)
	if err != nil {
		t.Fatalf("dial the wildcard listener over IPv4: %v", err)
	}
	c.Close()
}

// TestLookupHost: a literal is itself, a name is what the hosts file lists
// (IPv4 first, any case, comments skipped), and a name it lacks is refused
// with the advice to pass an address.
func TestLookupHost(t *testing.T) {
	hosts := filepath.Join(t.TempDir(), "hosts")
	os.WriteFile(hosts, []byte("# a comment naming nodeb\n::1 nodea # and nodeb\n10.0.0.7\tNodeA nodea.cluster\n\n127.0.0.1 localhost\n"), 0o600)
	was := hostsFile
	hostsFile = hosts
	t.Cleanup(func() { hostsFile = was })
	for host, want := range map[string][]string{
		"10.1.2.3":       {"10.1.2.3"},
		"::ffff:1.2.3.4": {"1.2.3.4"},
		"nodea":          {"10.0.0.7", "::1"},
		"NODEA.cluster.": {"10.0.0.7"},
	} {
		ips, err := lookupHost(host)
		var got []string
		for _, ip := range ips {
			got = append(got, ip.String())
		}
		if err != nil || !slices.Equal(got, want) {
			t.Errorf("lookupHost(%q) = %v, %v; want %v", host, got, err, want)
		}
	}
	_, err := lookupHost("nodeb")
	if err == nil || !strings.Contains(err.Error(), "pass an address") {
		t.Fatalf("lookupHost of a name the hosts file lacks: %v, want a refusal that says to pass an address", err)
	}
	if _, err := Dial("tcp", "nodeb:7077", time.Second); err == nil || !strings.Contains(err.Error(), "pass an address") {
		t.Fatalf("Dial of a DNS-only name: %v", err)
	}
	for _, bad := range []string{"nodea", "nodea:http", "nodea:70000"} {
		if _, err := Listen("tcp", bad); err == nil {
			t.Errorf("Listen(tcp, %q) succeeded", bad)
		}
	}
}

// TestDialTimeout: a connect the peer never answers — its listener's accept
// queue is full, so the kernel drops the SYN — ends at the dial's timeout
// with os.ErrDeadlineExceeded.
func TestDialTimeout(t *testing.T) {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(fd)
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil { // never accepted: the queue fills at once
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := addrPort(sa).String()
	for i := 0; i < 8; i++ {
		t0 := time.Now()
		c, err := Dial("tcp", addr, 100*time.Millisecond)
		if err == nil {
			defer c.Close() // queued: the next connect finds the queue fuller
			continue
		}
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("dial %d: %v, want os.ErrDeadlineExceeded", i, err)
		}
		if d := time.Since(t0); d < 90*time.Millisecond || d > 5*time.Second {
			t.Fatalf("dial %d timed out after %v, want about 100ms", i, d)
		}
		return
	}
	t.Skip("the kernel kept accepting connections into a full queue (SYN cookies?)")
}
