package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public API, made from this
// benchmark's own code. Name is "<layer>.<call>"; Parent is 0 for a root
// span. Every request, refresh, seal and restart gets its own root span.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: spans still time their call, but nothing is recorded.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// timer is an open span.
type timer struct {
	t      *tracer
	id     uint64
	parent uint64
	name   string
	start  time.Time
}

// begin opens a span named name under parent (0 for a root span).
func (t *tracer) begin(name string, parent uint64) timer {
	tm := timer{t: t, parent: parent, name: name, start: time.Now()}
	if t != nil {
		tm.id = t.next.Add(1)
	}
	return tm
}

// end closes the span and returns its duration, traced or not.
func (tm timer) end() time.Duration {
	now := time.Now()
	d := now.Sub(tm.start)
	if tm.t != nil {
		tm.t.mu.Lock()
		tm.t.spans = append(tm.t.spans, span{
			ID: tm.id, Parent: tm.parent, Name: tm.name,
			Start: tm.start.Sub(tm.t.epoch).Nanoseconds(), End: now.Sub(tm.t.epoch).Nanoseconds(),
		})
		tm.t.mu.Unlock()
	}
	return d
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the durations of every span called name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTime sums, per layer, each span's duration minus the part of it its
// child spans cover.
func selfTime(spans []span) map[string]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		self := s.End - s.Start
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, until := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, until), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				until = hi
			}
		}
		out[layerOf(s.Name)] += time.Duration(self - covered)
	}
	return out
}

// write stores the spans as JSON lines, one span a line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // already failing; the encode error is the one to report
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // already failing; the flush error is the one to report
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
