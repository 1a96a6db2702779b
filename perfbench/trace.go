package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval of the traced run: a call into a layer
// package, or a grouping interval (a replayed run, a design point) whose
// children are those calls.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at the root
	Run    int    `json:"run"`    // replay number; spans of one replay share it
	Alloc  uint64 `json:"alloc_bytes,omitempty"`
}

// tracer records spans in memory; write dumps them at the end of the run.
// It is used from one goroutine only (the traced run is serial).
type tracer struct {
	base  time.Time
	spans []span
	open  []int // stack of open span indices
	run   int
}

// allocSampled names the layers whose spans also record allocations.
var allocSampled = map[string]bool{"partition": true, "route": true, "sim": true, "fault": true}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span nested in the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	s := span{Name: name, Parent: parent, Run: t.run}
	if allocSampled[name] {
		s.Alloc = heapAllocs()
	}
	s.Start = int64(time.Since(t.base))
	t.spans = append(t.spans, s)
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	s := &t.spans[i]
	s.End = int64(time.Since(t.base))
	if allocSampled[s.Name] {
		s.Alloc = heapAllocs() - s.Alloc
	}
	t.open = t.open[:len(t.open)-1]
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func()) {
	i := t.begin(name)
	fn()
	t.end(i)
}

// layerTotals are the summed self times, call counts and allocations of the
// spans of one name.
type layerTotals struct {
	calls int
	self  time.Duration
	alloc uint64
}

// totals folds the spans into per-name totals. A span's self time is its
// duration minus the time its direct children cover.
func (t *tracer) totals() map[string]*layerTotals {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*layerTotals)
	for i, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotals{}
			out[s.Name] = lt
		}
		lt.calls++
		lt.self += time.Duration(s.End - s.Start - child[i])
		lt.alloc += s.Alloc
	}
	return out
}

// write dumps every span as one JSON line to path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
