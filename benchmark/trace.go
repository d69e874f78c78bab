package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans of one submitted frame share
// its frame number; parent is the index of the span that caused this one
// (-1 for a frame's root). Only names, counts and clock readings are
// recorded — never an argument of the call.
type span struct {
	frame  int32
	name   string
	parent int32
	start  int64 // ns since the tracer's epoch
	end    int64
}

// tracer keeps spans in memory and writes them out when the run ends. One
// goroutine records at a time (the traced pass runs a single generator).
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
}

// newTracer preallocates so the traced window never grows the slice: a
// large fresh allocation inside a measured window is first-touch noise.
func newTracer(workload string, capacity int) *tracer {
	return &tracer{workload: workload, epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// full reports that there is no room left for another frame's spans; the
// pass then goes on untraced rather than grow the slice mid-window.
func (t *tracer) full() bool { return len(t.spans)+32 > cap(t.spans) }

// begin opens a span and returns its index.
func (t *tracer) begin(frame int, name string, parent int) int {
	t.spans = append(t.spans, span{
		frame: int32(frame), name: name, parent: int32(parent),
		start: int64(time.Since(t.epoch)),
	})
	return len(t.spans) - 1
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.end = int64(time.Since(t.epoch))
	return time.Duration(s.end - s.start)
}

// selfTimes returns, per span name, each span's duration minus the part
// its direct children cover — the layer's own time.
func (t *tracer) selfTimes() map[string]samples {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]samples)
	for i, s := range t.spans {
		out[s.name] = append(out[s.name], float64(s.end-s.start-child[i]))
	}
	return out
}

// selfNote is the budget in one line: each layer's median self time.
func (t *tracer) selfNote() string {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("median self time, us:")
	for _, name := range names {
		fmt.Fprintf(&b, " %s %.4g", name, median(self[name])/1e3)
	}
	return b.String()
}

// spanRecord is the JSONL form of a span.
type spanRecord struct {
	Workload string `json:"workload"`
	Frame    int32  `json:"frame"`
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Parent   int32  `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		rec := spanRecord{t.workload, s.frame, i, s.name, s.parent, s.start, s.end}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
