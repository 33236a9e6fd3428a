package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/instrument"
)

func TestRunBadFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-snapshot-every", "1s"}, "needs -wal-dir"},
		{[]string{"-addr", "256.256.256.256:1"}, ""},
	}
	for _, tc := range cases {
		err := run(tc.args)
		if err == nil {
			t.Fatalf("run(%v) succeeded, want error", tc.args)
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("run(%v) = %v, want %q", tc.args, err, tc.want)
		}
	}
}

// freePort reserves a loopback port and releases it for the command under
// test. The window between Close and the server's bind is racy in theory;
// on a quiet test host it is dependable enough for a smoke test.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestRunServesAndDrainsOnSignal runs the real command loop and SIGTERMs it:
// once the instant the port accepts, as a harness or an init system waiting
// on the socket would (the handler must already be installed, or the default
// one kills the process), and once after serving the protocol and answering
// an admin probe. Both must drain cleanly.
func TestRunServesAndDrainsOnSignal(t *testing.T) {
	for _, tc := range []struct {
		name    string
		traffic bool
	}{{"right after bind", false}, {"after traffic", true}} {
		t.Run(tc.name, func(t *testing.T) {
			addr, admin := freePort(t), freePort(t)
			done := make(chan error, 1)
			go func() {
				done <- run([]string{"-addr", addr, "-admin-addr", admin,
					"-drain-timeout", "5s"})
			}()

			// No sleep between dials: the signal below must be safe however
			// soon after the bind it lands.
			var nc net.Conn
			var err error
			for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
				if nc, err = net.Dial("tcp", addr); err == nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("server never came up on %s: %v", addr, err)
				}
			}
			defer nc.Close()
			br := bufio.NewReader(nc)
			if tc.traffic {
				if _, err := fmt.Fprintf(nc, "SET 1 one\nGET 1\nPING\n"); err != nil {
					t.Fatal(err)
				}
				for i, want := range []string{":1\n", "$one\n", "+PONG\n"} {
					line, err := br.ReadString('\n')
					if err != nil || line != want {
						t.Fatalf("response %d = %q (%v), want %q", i, line, err, want)
					}
				}

				resp, err := http.Get("http://" + admin + "/readyz")
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("/readyz = %d %q, want 200", resp.StatusCode, body)
				}
			}

			if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("run returned %v after SIGTERM, want clean drain", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("run did not exit after SIGTERM")
			}
			// The drain closed the idle connection we still hold. Right
			// after bind the signal can land between the kernel accepting
			// the connection and Serve adopting it; the server then sheds
			// it as busy, which also ends in EOF.
			nc.SetReadDeadline(time.Now().Add(2 * time.Second))
			rest, err := io.ReadAll(br)
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatal("connection still open after drain")
			}
			if s := string(rest); s != "" && s != "-ERR server busy\n" {
				t.Fatalf("drained connection read %q, want EOF", s)
			}
		})
	}
}

// TestRunDrainsMidBurst is the end-to-end graceful-shutdown contract:
// SIGTERM lands while several connections are mid-burst, and every
// command written before the writers stand down is answered — the drain
// grace serves commands already on the wire, each connection finishes
// the run in hand before it closes, and zero replies are dropped.
func TestRunDrainsMidBurst(t *testing.T) {
	addr := freePort(t)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", addr, "-drain-timeout", "5s"})
	}()

	const conns = 4
	const per = 64
	ncs := make([]net.Conn, conns)
	for i := 0; i < conns; i++ {
		var err error
		for try := 0; try < 200; try++ {
			if ncs[i], err = net.Dial("tcp", addr); err == nil {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("server never came up on %s: %v", addr, err)
		}
		defer ncs[i].Close()
	}

	var stop atomic.Bool
	sent := make([]int, conns)
	got := make([]int, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for i := range ncs {
		wg.Add(1)
		go func(i int, nc net.Conn) {
			defer wg.Done()
			br := bufio.NewReader(nc)
			var burst bytes.Buffer
			for k := 0; k < per; k++ {
				fmt.Fprintf(&burst, "SET %d v\n", i*1024+k)
			}
			for !stop.Load() {
				if _, err := nc.Write(burst.Bytes()); err != nil {
					errs[i] = fmt.Errorf("write after %d replies: %w", got[i], err)
					return
				}
				sent[i] += per
				for k := 0; k < per; k++ {
					if _, err := br.ReadString('\n'); err != nil {
						errs[i] = fmt.Errorf("read after %d replies: %w", got[i], err)
						return
					}
					got[i]++
				}
			}
		}(i, ncs[i])
	}

	time.Sleep(50 * time.Millisecond) // let the burst traffic establish
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	stop.Store(true) // writers finish their in-flight round, then stand down

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM, want clean drain", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not exit after SIGTERM")
	}
	wg.Wait()
	for i := 0; i < conns; i++ {
		if errs[i] != nil {
			t.Errorf("conn %d: %v", i, errs[i])
		}
		if sent[i] == 0 {
			t.Errorf("conn %d sent nothing before shutdown", i)
		}
		if got[i] != sent[i] {
			t.Errorf("conn %d: %d replies for %d sent commands (dropped %d)",
				i, got[i], sent[i], sent[i]-got[i])
		}
	}
}

// TestWALFsyncCollector pins the lockfree_wal_fsync_seconds exposition of a
// fixed snapshot: octave buckets in seconds up to the last non-empty one,
// a value past the last bound counted only at +Inf, sum in seconds.
func TestWALFsyncCollector(t *testing.T) {
	var h instrument.Hist
	for _, ns := range []int64{3, 20, 900, 1 << 50} {
		h.Record(ns)
	}
	var sb strings.Builder
	if err := walFsyncCollector(h.Snapshot)(&sb); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP lockfree_wal_fsync_seconds Write-ahead-log group-commit fsync latency.
# TYPE lockfree_wal_fsync_seconds histogram
lockfree_wal_fsync_seconds_bucket{le="1.5e-08"} 1
lockfree_wal_fsync_seconds_bucket{le="3.1e-08"} 2
lockfree_wal_fsync_seconds_bucket{le="6.3e-08"} 2
lockfree_wal_fsync_seconds_bucket{le="1.27e-07"} 2
lockfree_wal_fsync_seconds_bucket{le="2.55e-07"} 2
lockfree_wal_fsync_seconds_bucket{le="5.11e-07"} 2
lockfree_wal_fsync_seconds_bucket{le="1.023e-06"} 3
lockfree_wal_fsync_seconds_bucket{le="+Inf"} 4
lockfree_wal_fsync_seconds_sum 1.125899906843547e+06
lockfree_wal_fsync_seconds_count 4
`
	if got := sb.String(); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}
