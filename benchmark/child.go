package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is one lflserver process, started in its own process group so a
// failed run can take down everything it spawned. It is observed only from
// outside: its stdout lines, /proc/<pid>, and its admin HTTP endpoint.
type child struct {
	cmd     *exec.Cmd
	addr    string // wire address it printed
	admin   string // admin address it printed
	lines   chan string
	started time.Time
}

// startServer execs lflserver on an ephemeral port with the given extra
// flags and waits until it prints the address it serves on.
func startServer(e env, extra ...string) (*child, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(e.server, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, started: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("exec %s: %w", e.server, err)
	}
	// The child prints a handful of lines and one per snapshot; the buffer
	// lets it keep printing while nobody waits for a line.
	c.lines = make(chan string, 4096)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			select {
			case c.lines <- sc.Text():
			default: // never block the child on its stdout
			}
		}
		close(c.lines)
	}()
	line, err := c.waitLine("lflserver: serving", 60*time.Second)
	if err != nil {
		c.kill()
		return nil, err
	}
	// "lflserver: serving 4-shard store on 127.0.0.1:41234 (keys [0, 1048576))"
	if _, rest, ok := strings.Cut(line, " on "); ok {
		c.addr, _, _ = strings.Cut(rest, " ")
	}
	if c.addr == "" {
		c.kill()
		return nil, fmt.Errorf("cannot parse the served address from %q", line)
	}
	return c, nil
}

// waitLine consumes the child's output up to the first line starting with
// prefix. The admin address line is picked up on the way.
func (c *child) waitLine(prefix string, timeout time.Duration) (string, error) {
	deadline := time.After(timeout)
	for {
		select {
		case line, ok := <-c.lines:
			if !ok {
				return "", fmt.Errorf("lflserver exited before printing %q", prefix)
			}
			if rest, found := strings.CutPrefix(line, "lflserver: admin endpoints on http://"); found {
				c.admin = rest
			}
			if strings.HasPrefix(line, prefix) {
				return line, nil
			}
		case <-deadline:
			return "", fmt.Errorf("lflserver did not print %q within %v", prefix, timeout)
		}
	}
}

// countLines drains the output buffered so far and counts the lines that
// start with prefix.
func (c *child) countLines(prefix string) int {
	n := 0
	for {
		select {
		case line, ok := <-c.lines:
			if !ok {
				return n
			}
			if strings.HasPrefix(line, prefix) {
				n++
			}
		default:
			return n
		}
	}
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// drain sends SIGTERM and waits for "drained cleanly" and the exit.
func (c *child) drain() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	_, err := c.waitLine("lflserver: drained cleanly", 30*time.Second)
	if werr := c.cmd.Wait(); err == nil && werr != nil {
		err = fmt.Errorf("lflserver exit: %w", werr)
	}
	return err
}

// kill takes down the child's whole process group and reaps it; safe to
// call after drain.
func (c *child) kill() {
	if c.cmd.ProcessState != nil {
		return
	}
	_ = syscall.Kill(-c.pid(), syscall.SIGKILL) // the group may already be gone
	_ = c.cmd.Wait()                            // reaping; the exit status of a killed child says nothing
}

// cpuSeconds reads utime+stime of the whole process from /proc/<pid>/stat.
func (c *child) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.pid()))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the name.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, errors.New("malformed /proc/<pid>/stat")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc/<pid>/stat times")
	}
	const clkTck = 100 // USER_HZ: fixed at 100 on Linux
	return float64(ut+st) / clkTck, nil
}

// rssBytes reads the resident set size from /proc/<pid>/statm.
func (c *child) rssBytes() (uint64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", c.pid()))
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, errors.New("malformed /proc/<pid>/statm")
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	return pages * uint64(os.Getpagesize()), err
}

// syscalls reads the read and write syscall counts from /proc/<pid>/io.
func (c *child) syscalls() (syscr, syscw uint64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", c.pid()))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "syscr: "); ok {
			syscr, _ = strconv.ParseUint(v, 10, 64)
		}
		if v, ok := strings.CutPrefix(line, "syscw: "); ok {
			syscw, _ = strconv.ParseUint(v, 10, 64)
		}
	}
	return syscr, syscw, nil
}

// vars is the part of the child's /debug/vars the benchmark reads: the Go
// runtime's allocation count and the store/WAL/snapshot counters lflserver
// publishes as "lockfree:lflserver".
type vars struct {
	Memstats struct{ Mallocs uint64 } `json:"memstats"`
	Counters map[string]uint64        `json:"-"`
}

func (c *child) vars() (vars, error) {
	var v vars
	if c.admin == "" {
		return v, errors.New("lflserver printed no admin address")
	}
	resp, err := http.Get("http://" + c.admin + "/debug/vars")
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return v, fmt.Errorf("/debug/vars: %w", err)
	}
	if err := json.Unmarshal(raw["memstats"], &v.Memstats); err != nil {
		return v, fmt.Errorf("/debug/vars memstats: %w", err)
	}
	v.Counters = map[string]uint64{}
	if tel, ok := raw["lockfree:lflserver"]; ok {
		var t struct {
			Counters map[string]uint64 `json:"counters"`
		}
		if err := json.Unmarshal(tel, &t); err == nil {
			v.Counters = t.Counters
		}
	}
	return v, nil
}

// probe samples the child at a window boundary.
func (c *child) probe(ops uint64) (probeSample, error) {
	s := probeSample{ops: ops}
	var err error
	if s.cpu, err = c.cpuSeconds(); err != nil {
		return s, err
	}
	if s.syscr, s.syscw, err = c.syscalls(); err != nil {
		return s, err
	}
	v, err := c.vars()
	if err != nil {
		return s, err
	}
	s.mallocs = v.Memstats.Mallocs
	s.t = time.Now()
	return s, nil
}
