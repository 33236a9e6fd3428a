// killrecover.go is the -killrecover mode: a crash-durability stress.
// The parent re-execs itself as a wal-sync child server and drives it with
// the -server client loop, each worker over its own key span, until it
// SIGKILLs the child mid-burst; the workers abandon every command whose
// reply never came. It restarts the child from the same WAL directory,
// reads every key once, and hands the whole history to history.Check,
// which requires durable linearizability (Izraelevitz, Mendes & Scott,
// DISC 2016): every acked op took effect before the crash and each
// abandoned one did or did not, in real-time order. wal-sync holds a
// reply until its record is fsynced, so every acked op is required.
// Values read, pre-crash GETs included, are held to checkValues' two
// necessary conditions, which do not pin which SET is current when one run
// holds several SETs of a key; the exact writer pass is ROADMAP item 16.
// The spans stay disjoint because a shared range would trip the
// cross-connection log-order race that ROADMAP item 2 fixes
// (TestDurabilityCrossConnectionRaceResurrects, internal/server).
package main

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	"repro/internal/history"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/wal"
	"repro/lockfree"
)

const childBanner = "child-server: serving on "

// runChildServer is the re-exec'd server side of -killrecover: recover
// from walDir through snapshot.Recover, the routine lflserver boots
// with, serve wal-sync on an ephemeral port, print the address for the
// parent to scan, and run until killed.
func runChildServer(walDir string) error {
	if walDir == "" {
		return errors.New("-child-server needs -wal-dir")
	}
	store := lockfree.NewSkipList[int, string]()
	l, _, err := snapshot.Recover(walDir, wal.Options{FsyncWindow: time.Millisecond},
		func(k int64, v string) bool { return store.Insert(int(k), v) },
		func(k int64) { store.Delete(int(k)) })
	if err != nil {
		return err
	}
	defer l.Close()
	srv := server.New(server.Config{Durability: server.DurabilitySync, WAL: l}, store)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Println(childBanner + ln.Addr().String())
	return srv.Serve(ln)
}

// runKillRecover drives `rounds` kill-and-recover rounds. A failing round
// names the seed that replays its op streams; the kill instant is not
// replayed.
func runKillRecover(threads, ops, keyRange, rounds int, seed uint64, pipeline int) error {
	if pipeline <= 0 {
		pipeline = 16
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	totalAcked := 0
	for round := 0; round < rounds; round++ {
		acked, err := killRecoverRound(exe, round, threads, ops, keyRange, seed, pipeline)
		if err != nil {
			return roundFailed(round, seed, fmt.Errorf("%w (the replay redraws the op streams, not the kill instant)", err))
		}
		totalAcked += acked
	}
	fmt.Printf("ok: killrecover passed %d rounds, %d acked operations, durably linearizable across SIGKILL + recovery\n",
		rounds, totalAcked)
	return nil
}

func killRecoverRound(exe string, round, threads, ops, keyRange int, seed uint64, pipeline int) (ackedOps int, err error) {
	walDir, err := os.MkdirTemp("", "lflstress-killrecover-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(walDir)

	child, addr, err := spawnChild(exe, walDir)
	if err != nil {
		return 0, err
	}
	defer func() {
		child.Process.Kill()
		child.Wait()
	}()

	// Thread `threads` reads the recovered state.
	rec := history.NewRecorder(threads+1, ops)
	errs := make([]error, threads)
	errAt := make([]int64, threads)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed+uint64(round), uint64(w)))
			errs[w] = runServerWorker(addr, rec.Thread(w), rng, ops, keyRange, w*keyRange, pipeline)
			errAt[w] = rec.Now()
		}(w)
	}
	// Kill once the clock, a tick per invocation and per response, shows
	// the bursts mid-flight, or every op done if the budget is smaller (a
	// quiescent crash), or after 10 s if workers stop short of either.
	killAt := int64(min(threads*pipeline*16, 2*threads*ops))
	for deadline := time.Now().Add(10 * time.Second); rec.Now() < killAt && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	killedAt := rec.Now()
	if err := child.Process.Kill(); err != nil { // SIGKILL: no drain, no fsync flush
		return 0, fmt.Errorf("kill: %w", err)
	}
	child.Wait()
	wg.Wait()
	for w, err := range errs {
		if err != nil && errAt[w] <= killedAt {
			return 0, fmt.Errorf("worker %d failed before the kill: %w", w, err)
		}
	}

	start := time.Now()
	child2, addr2, err := spawnChild(exe, walDir)
	if err != nil {
		return 0, fmt.Errorf("restart: %w", err)
	}
	defer func() {
		child2.Process.Kill()
		child2.Wait()
	}()
	recovery := time.Since(start)
	nc, err := net.Dial("tcp", addr2)
	if err != nil {
		return 0, err
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	th := rec.Thread(threads)
	for k := 0; k < threads*keyRange; k++ {
		o := th.Begin(history.KindSearch, k)
		_, err := fmt.Fprintf(nc, "GET %d\n", k)
		var line string
		if err == nil {
			line, err = br.ReadString('\n')
		}
		if err == nil {
			err = endReply(th, o, line)
		}
		if err != nil {
			return 0, fmt.Errorf("reading key %d back: %w", k, err)
		}
	}

	hist := rec.Ops()
	if err := checkRound(hist); err != nil {
		return 0, err
	}
	acked := -threads * keyRange // less the reads back
	for _, o := range hist {
		if !o.Pending {
			acked++
		}
	}
	if acked == 0 {
		return 0, errors.New("vacuous round: no acked op, the kill landed before any burst")
	}
	fmt.Printf("round %d: SIGKILL after %d acked ops (%d abandoned); recovery in %v; %d keys read back\n",
		round, acked, len(hist)-acked-threads*keyRange, recovery.Round(time.Millisecond), threads*keyRange)
	return acked, nil
}

// spawnChild re-execs this binary as a -child-server over walDir and
// scans its stdout for the serving address.
func spawnChild(exe, walDir string) (*exec.Cmd, string, error) {
	cmd := exec.Command(exe, "-child-server", "-wal-dir", walDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	sc := bufio.NewScanner(out)
	addrc := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, childBanner) {
				select {
				case addrc <- strings.TrimPrefix(line, childBanner):
				default:
				}
			}
			// Keep draining so the child never blocks on a full pipe.
		}
	}()
	select {
	case addr := <-addrc:
		return cmd, addr, nil
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		return nil, "", errors.New("child server did not report an address within 10s")
	}
}
