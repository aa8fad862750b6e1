package sock

import (
	"errors"
	"io"
	"net/netip"
	"os"
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

// TestRoundTrip: bytes cross a TCP and a Unix connection both ways, and a
// closed end reads as io.EOF at the other.
func TestRoundTrip(t *testing.T) {
	for _, tc := range []struct{ network, addr string }{
		{"tcp", "127.0.0.1:0"},
		{"unix", filepath.Join(t.TempDir(), "s")},
	} {
		t.Run(tc.network, func(t *testing.T) {
			ln, client, server := pair(t, tc.network, tc.addr)
			if ln.Network() != tc.network {
				t.Fatalf("Network() = %q, want %q", ln.Network(), tc.network)
			}
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
// spawned rank inherits none), a TCP connection has Nagle off at both ends
// and a listener SO_REUSEADDR on, as net makes them.
func TestSocketOptions(t *testing.T) {
	ln, client, server := pair(t, "tcp", "127.0.0.1:0")
	for name, f := range map[string]any{"listener": ln.(*listener).f, "dialed": client, "accepted": server} {
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
			if name == "listener" {
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

// TestCloseUnblocksAccept: closing a listener ends an Accept parked on it,
// and a Unix listener's Close removes its socket file.
func TestCloseUnblocksAccept(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s")
	ln, err := Listen("unix", path)
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
	if _, err := os.Lstat(path); !os.IsNotExist(err) {
		t.Fatalf("socket file after Close: %v, want it gone", err)
	}
}

// TestDialRefused: a dial to a port nobody listens on, or a Unix path that
// is no socket, fails at once with the kernel's reason.
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
	if _, err := Dial("unix", filepath.Join(t.TempDir(), "none"), time.Second); !errors.Is(err, syscall.ENOENT) {
		t.Fatalf("dial of a missing path: %v, want ENOENT", err)
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
