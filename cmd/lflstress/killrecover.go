// killrecover.go is the -killrecover mode: a crash-durability stress.
// The parent re-execs itself as a wal-sync child server, hammers it with
// pipelined SET/DEL bursts, SIGKILLs it mid-burst, restarts it from the
// same WAL directory, and verifies the recovered state against a
// per-key admissibility model:
//
//   - every *acked* operation's effect must survive (wal-sync holds the
//     reply flush until the mutation is fsync-durable, so an ack the
//     client has read is a durability contract);
//   - the unacked suffix of each key's operations may have applied any
//     prefix (applied + logged + fsynced, but the reply never reached
//     the client before the kill) — the recovered state must match the
//     acked state with 0..n of the key's unacked operations applied, in
//     program order, and nothing else.
//
// Workers own disjoint key spans, so each key's operation sequence is
// one connection's program order — which the server guarantees equals
// log order — making the per-key model exact.
package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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

// valState is a key's value or absence.
type valState struct {
	present bool
	val     string
}

// pendOp is one issued-but-unacked operation.
type pendOp struct {
	set bool
	val string
}

// keyModel is one key's durability model at kill time.
type keyModel struct {
	acked   valState // state after the last acked operation
	pending []pendOp // issued operations whose replies never arrived
	touched bool     // at least one op was acked (model is grounded)
}

// admissibleStates returns every state the recovered store may hold for
// this key: the acked state with each prefix of the unacked suffix
// applied under insert-if-absent / delete semantics.
func (m *keyModel) admissibleStates() []valState {
	states := []valState{m.acked}
	cur := m.acked
	for _, p := range m.pending {
		if p.set {
			if !cur.present {
				cur = valState{present: true, val: p.val}
			}
		} else {
			cur = valState{}
		}
		states = append(states, cur)
	}
	return states
}

// runKillRecover drives `rounds` kill-and-recover rounds. Each worker
// owns the key span [w*keyRange, (w+1)*keyRange).
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
			return fmt.Errorf("round %d: %w", round, err)
		}
		totalAcked += acked
	}
	fmt.Printf("ok: killrecover passed %d rounds, %d acked operations survived SIGKILL + recovery\n",
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

	// Workers run until the kill severs their connections; the parent
	// pulls the trigger once enough operations are acked that the burst
	// is demonstrably mid-flight.
	var ackedCount atomic.Int64
	killAt := int64(threads * pipeline * 8)
	models := make([]map[int]*keyModel, threads)
	var wg sync.WaitGroup
	workersDone := make(chan struct{})
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed+uint64(round), uint64(w)))
			models[w] = killWorker(addr, w, keyRange, ops, pipeline, rng, &ackedCount)
		}(w)
	}
	go func() {
		wg.Wait()
		close(workersDone)
	}()
	// Trigger once the burst is demonstrably mid-flight; if the ops
	// budget runs dry first, kill anyway (the round degrades to a
	// quiescent-crash check rather than hanging).
	for ackedCount.Load() < killAt {
		select {
		case <-workersDone:
		case <-time.After(time.Millisecond):
			continue
		}
		break
	}
	if err := child.Process.Kill(); err != nil { // SIGKILL: no drain, no fsync flush
		return 0, fmt.Errorf("kill: %w", err)
	}
	child.Wait()
	wg.Wait()

	// Restart from disk and verify every key against its model.
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

	checkedKeys, grounded := 0, 0
	for w := 0; w < threads; w++ {
		for k, m := range models[w] {
			got, err := getState(nc, br, k)
			if err != nil {
				return 0, err
			}
			okState := false
			for _, s := range m.admissibleStates() {
				if s == got {
					okState = true
					break
				}
			}
			if !okState {
				return 0, fmt.Errorf("key %d: recovered state {present:%v val:%q} not admissible (acked {present:%v val:%q}, %d unacked)",
					k, got.present, got.val, m.acked.present, m.acked.val, len(m.pending))
			}
			checkedKeys++
			if m.touched {
				grounded++
			}
		}
	}
	acked := int(ackedCount.Load())
	if acked == 0 || grounded == 0 {
		return 0, fmt.Errorf("vacuous round: %d acked ops, %d grounded keys — the kill landed before any burst", acked, grounded)
	}
	fmt.Printf("round %d: SIGKILL after %d acked ops; recovery in %v; %d keys verified (%d with acked history)\n",
		round, acked, recovery.Round(time.Millisecond), checkedKeys, grounded)
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

// killWorker hammers its own key span [w*keyRange, (w+1)*keyRange) with
// pipelined SET/DEL chunks until the connection dies (the kill) or the
// ops budget runs out, maintaining each key's durability model. Every
// chunk's ops are appended to their keys' pending lists before the
// write, acked in reply order (the front of the pending list, since
// replies are positional), and folded into the acked state using the
// server's actual result.
func killWorker(target string, w, keyRange, ops, pipeline int, rng *rand.Rand, ackedCount *atomic.Int64) map[int]*keyModel {
	models := make(map[int]*keyModel, keyRange)
	model := func(k int) *keyModel {
		m := models[k]
		if m == nil {
			m = &keyModel{}
			models[k] = m
		}
		return m
	}
	nc, err := net.Dial("tcp", target)
	if err != nil {
		return models
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	base := w * keyRange

	type issued struct {
		k   int
		set bool
		val string
	}
	var req bytes.Buffer
	chunk := make([]issued, 0, pipeline)
	for opIdx := 0; opIdx < ops; {
		req.Reset()
		chunk = chunk[:0]
		c := min(pipeline, ops-opIdx)
		for j := 0; j < c; j++ {
			k := base + int(rng.Uint64N(uint64(keyRange)))
			op := issued{k: k, set: rng.Uint64N(2) == 0}
			if op.set {
				op.val = fmt.Sprintf("w%d.%d", w, opIdx)
				fmt.Fprintf(&req, "SET %d %s\n", k, op.val)
			} else {
				fmt.Fprintf(&req, "DEL %d\n", k)
			}
			chunk = append(chunk, op)
			model(k).pending = append(model(k).pending, pendOp{set: op.set, val: op.val})
			opIdx++
		}
		// TCP delivers in order: a torn write truncates the command
		// stream at a boundary the server re-syncs past, so the issued
		// ops that actually executed are a prefix — exactly what the
		// pending-prefix admissibility models.
		nc.SetDeadline(time.Now().Add(15 * time.Second))
		if _, err := nc.Write(req.Bytes()); err != nil {
			return models
		}
		for _, op := range chunk {
			line, err := br.ReadString('\n')
			if err != nil {
				return models // killed mid-burst; the rest stays pending
			}
			applied := strings.TrimSuffix(line, "\n") == ":1"
			m := models[op.k]
			m.pending = m.pending[1:]
			m.touched = true
			if applied {
				if op.set {
					m.acked = valState{present: true, val: op.val}
				} else {
					m.acked = valState{}
				}
			}
			ackedCount.Add(1)
		}
	}
	return models
}

// getState reads one key's recovered state from the restarted server.
func getState(nc net.Conn, br *bufio.Reader, k int) (valState, error) {
	if _, err := fmt.Fprintf(nc, "GET %d\n", k); err != nil {
		return valState{}, err
	}
	line, err := br.ReadString('\n')
	if err != nil {
		return valState{}, err
	}
	line = strings.TrimSuffix(line, "\n")
	switch {
	case line == "_":
		return valState{}, nil
	case strings.HasPrefix(line, "$"):
		return valState{present: true, val: line[1:]}, nil
	default:
		return valState{}, fmt.Errorf("GET %d: unexpected reply %q", k, line)
	}
}
