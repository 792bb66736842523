package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval at a layer boundary, recorded from outside the
// layer: around the benchmark's own call into it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = none
	Op     int    `json:"op"`     // operation id shared by every span of one operation; 0 = outside any
	Name   string `json:"name"`
	Source string `json:"source,omitempty"` // mw.step: where the batch read its data
	Nodes  int    `json:"nodes,omitempty"`  // mw.step: tree nodes fulfilled
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // duration minus the part child spans cover
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so the measured loop is the same
// code with tracing off.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int // indices into spans of the open spans
	op    int
}

func newTracer() *tracer { return &tracer{t0: wallNow()} }

// begin opens a span under the innermost open one. An "op" span starts a new
// operation id.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	s := span{ID: len(t.spans) + 1, Name: name, Start: int64(wallNow().Sub(t.t0))}
	if n := len(t.stack); n > 0 {
		s.Parent = t.spans[t.stack[n-1]].ID
		s.Op = t.spans[t.stack[n-1]].Op
	}
	if name == "op" {
		t.op++
		s.Op = t.op
	}
	t.stack = append(t.stack, len(t.spans))
	t.spans = append(t.spans, s)
}

// end closes the innermost open span and returns it for annotation.
func (t *tracer) end() *span {
	if t == nil {
		return nil
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[i]
	s.End = int64(wallNow().Sub(t.t0))
	s.Self += s.End - s.Start
	if s.Parent > 0 {
		t.spans[s.Parent-1].Self -= s.End - s.Start
	}
	return s
}

// endStep closes an mw.step span with its batch attributes.
func (t *tracer) endStep(source string, nodes int) {
	if s := t.end(); s != nil {
		s.Source, s.Nodes = source, nodes
	}
}

// perOp sums, for every operation, the seconds spent in spans accepted by
// match, and returns one total per operation in operation order.
func (t *tracer) perOp(match func(*span) bool) []float64 {
	out := make([]float64, t.op)
	for i := range t.spans {
		s := &t.spans[i]
		if s.Op > 0 && match(s) {
			out[s.Op-1] += float64(s.End-s.Start) / 1e9
		}
	}
	return out
}

func named(name string) func(*span) bool {
	return func(s *span) bool { return s.Name == name }
}

func stepFrom(source string) func(*span) bool {
	return func(s *span) bool { return s.Name == "mw.step" && s.Source == source }
}

// writeNDJSON writes one span per line.
func (t *tracer) writeNDJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
