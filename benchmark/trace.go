package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// trace.go records spans at layer boundaries from the benchmark's own
// files, keeps them in memory, and writes them out when the run ends.

const chunkOps = 1024 // a replay records one span per chunk of this many ops

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans. With off set it records nothing, which is how the
// tracing overhead is measured. The mutex is uncontended: the client and
// the server side of a rung take turns.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	off   bool
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its id, or -1 when tracing is off.
func (t *tracer) begin(name string, parent int) int {
	if t.off {
		return -1
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.epoch))})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// write stores the spans as JSON under dir/trace-<stream>.json.
func (t *tracer) write(dir, stream string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	b, err := json.Marshal(struct {
		Stream string `json:"stream"`
		Spans  []span `json:"spans"`
	}{stream, t.spans})
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+stream+".json")
	return path, os.WriteFile(path, b, 0o644)
}

// rung is one boundary of the ladder: the whole stream prefix replayed
// through one layer, with everything below it underneath.
type rung struct {
	metric string // the name its self time is published under
	ns     int64  // wall time of the replay
	ops    int
}

func (r rung) nsPerOp() float64 { return float64(r.ns) / float64(r.ops) }

// selfTimes gives each layer its rung minus the rung below (the bottom
// rung keeps all of its time). The differences telescope: they sum to the
// top rung exactly, whatever the individual values, negative ones included
// (a layer that makes the op cheaper, as sharding a big list does).
func selfTimes(rungs []rung) []int64 {
	self := make([]int64, len(rungs))
	var below int64
	for i, r := range rungs {
		self[i] = r.ns - below
		below = r.ns
	}
	return self
}
