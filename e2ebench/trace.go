package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// The traced run records spans from the benchmark's own files, around
// the calls it makes into each layer: the wire round trip, a middleware
// around the server's handler, and direct replays through the facade,
// the parser and the engine. Nothing inside the program is instrumented.
// Spans stay in memory and are written out when the run ends.

// span is one timed call at a layer boundary. Name is "<layer>/<op>";
// spans of one request share Req, and Parent is the enclosing span's ID
// (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) layer() string { return s.Name[:strings.IndexByte(s.Name, '/')] }

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer collects spans. A nil *tracer records nothing, so untraced runs
// pay one nil test per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span ID, so a parent can be named before it ends.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record files a finished span under a reserved ID (0 = allocate one)
// and returns its ID.
func (t *tracer) record(id, parent, req int64, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.next++
		id = t.next
	}
	t.spans = append(t.spans, span{id, parent, req, name, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
	return id
}

// timed runs fn and records it as a span.
func (t *tracer) timed(parent, req int64, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.record(0, parent, req, name, start, end)
	return end.Sub(start)
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// byName returns the durations of the spans called name whose request
// ID keep accepts (nil keeps all).
func (t *tracer) byName(name string, keep func(req int64) bool) latencies {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out latencies
	for _, s := range t.spans {
		if s.Name == name && (keep == nil || keep(s.Req)) {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns each layer's self time: every span's duration minus
// the part of it its children cover, summed per layer.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.layer()] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curEnd int64
	curEnd = parent.Start
	for _, k := range kids {
		start, end := max(k.Start, curEnd), min(k.End, parent.End)
		if end > start {
			total += end - start
			curEnd = end
		}
	}
	return time.Duration(total)
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// spanLayers are the layers whose self time the traced run reports.
var spanLayers = []string{"bench", "server", "idl", "parser", "core.eval", "core.views", "core.update", "federation", "wal"}

// setSelfTimes records <layer>.self_ms_per_op for every span layer.
func (m metrics) setSelfTimes(t *tracer, ops int) {
	self := t.selfTimes()
	for _, l := range spanLayers {
		m.set(l+".self_ms_per_op", ratio(float64(self[l])/float64(time.Millisecond), float64(ops)), "ms", ops)
	}
}
