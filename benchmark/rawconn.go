package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"syscall"
)

// rawConn is a TCP connection on a blocking file descriptor, read and
// written with plain syscalls. A goroutine blocked in one of them is an OS
// thread blocked in the kernel, woken by the kernel the moment data
// arrives: the Go scheduler and its netpoller, whose internal short sleeps
// last a millisecond on a kernel with coarse timers, stay out of the
// client's latency.
type rawConn struct {
	fd     int
	closed atomic.Bool
}

func dialRaw(addr string) (*rawConn, error) {
	sa, err := sockaddr(addr)
	if err != nil {
		return nil, err
	}
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, fmt.Errorf("socket: %w", err)
	}
	if err := syscall.Connect(fd, sa); err != nil {
		_ = syscall.Close(fd)
		return nil, fmt.Errorf("connect %s: %w", addr, err)
	}
	c := &rawConn{fd: fd}
	c.noDelay()
	return c, nil
}

// noDelay turns Nagle's algorithm off, as Go's net package does for every
// TCP connection; a failure only costs latency.
func (c *rawConn) noDelay() {
	_ = syscall.SetsockoptInt(c.fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1)
}

func sockaddr(addr string) (*syscall.SockaddrInet4, error) {
	ta, err := net.ResolveTCPAddr("tcp4", addr)
	if err != nil {
		return nil, err
	}
	sa := &syscall.SockaddrInet4{Port: ta.Port}
	copy(sa.Addr[:], ta.IP.To4())
	return sa, nil
}

func (c *rawConn) Read(p []byte) (int, error) {
	for {
		n, err := syscall.Read(c.fd, p)
		if errors.Is(err, syscall.EINTR) {
			continue
		}
		if err != nil {
			return 0, err
		}
		if n == 0 {
			return 0, io.EOF
		}
		return n, nil
	}
}

func (c *rawConn) Write(p []byte) (int, error) {
	done := 0
	for done < len(p) {
		n, err := syscall.Write(c.fd, p[done:])
		if errors.Is(err, syscall.EINTR) {
			continue
		}
		if err != nil {
			return done, err
		}
		done += n
	}
	return done, nil
}

// Close is idempotent. It shuts the connection down first, which wakes a thread blocked in
// Read on it (closing the descriptor alone would not).
func (c *rawConn) Close() error {
	if c.closed.Swap(true) {
		return nil // a second close must not hit a descriptor number since reused
	}
	_ = syscall.Shutdown(c.fd, syscall.SHUT_RDWR) // fails only if the peer is already gone
	return syscall.Close(c.fd)
}

// rawListener accepts loopback connections with blocking syscalls.
type rawListener struct {
	fd   int
	port int
}

func listenRaw() (*rawListener, error) {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, fmt.Errorf("socket: %w", err)
	}
	fail := func(op string, err error) (*rawListener, error) {
		_ = syscall.Close(fd)
		return nil, fmt.Errorf("%s: %w", op, err)
	}
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		return fail("bind", err)
	}
	if err := syscall.Listen(fd, 16); err != nil {
		return fail("listen", err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		return fail("getsockname", err)
	}
	return &rawListener{fd: fd, port: sa.(*syscall.SockaddrInet4).Port}, nil
}

func (l *rawListener) addr() string { return fmt.Sprintf("127.0.0.1:%d", l.port) }

func (l *rawListener) accept() (*rawConn, error) {
	for {
		fd, _, err := syscall.Accept4(l.fd, syscall.SOCK_CLOEXEC)
		if errors.Is(err, syscall.EINTR) {
			continue
		}
		if err != nil {
			return nil, err
		}
		c := &rawConn{fd: fd}
		c.noDelay()
		return c, nil
	}
}

// close shuts the listening socket down, which makes a blocked accept
// return, then closes it.
func (l *rawListener) close() {
	_ = syscall.Shutdown(l.fd, syscall.SHUT_RDWR)
	_ = syscall.Close(l.fd)
}

// waitUntil polls the clock until now() reaches due, offering the core to
// any other runnable thread between polls (sched_yield returns at once when
// there is none). Sleeping is not an option: Go's timers have millisecond
// granularity, and a raw nanosleep wakes 50-200 us late on this kind of VM.
func waitUntil(now func() int64, due int64) {
	for now() < due {
		syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
	}
}

// spareProcs raises GOMAXPROCS well above the number of client threads, so
// a thread returning from a blocking syscall always finds a free P at once
// rather than queueing for one, and returns the function that restores the
// old value; the wire workloads run under it. The system under test is a
// child process and keeps its own default.
func spareProcs() (restore func()) {
	old := runtime.GOMAXPROCS(4*clients() + 8)
	return func() { runtime.GOMAXPROCS(old) }
}
