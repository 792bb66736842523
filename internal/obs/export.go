package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/sim"
)

// usec renders a virtual-ns quantity as Chrome trace-event microseconds with
// nanosecond precision ("1234.567"). A fixed formatter (never float64) keeps
// the export byte-deterministic.
type usec int64

func (u usec) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%d.%03d", int64(u)/1000, int64(u)%1000)), nil
}

// traceEvent is one Chrome trace-event object. Field order is fixed by the
// struct; map-valued Args marshal with sorted keys — both are load-bearing
// for the byte-determinism contract.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   usec           `json:"ts"`
	Dur  *usec          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   int64          `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome writes the trace in Chrome/Perfetto trace-event JSON: each proc
// becomes a process, each track (main, levels, ...) a thread, each
// span a complete ("X") event. Load the file at https://ui.perfetto.dev.
// Counter ("C") events derived from the batch spans (emitCounters) render
// budget utilization, tier residency and counter totals as time series.
func (t *Trace) WriteChrome(w io.Writer) error {
	ew := &eventWriter{w: w}
	ew.begin()
	if t != nil {
		t.mu.Lock()
		for _, p := range t.procs {
			ew.emit(traceEvent{
				Name: "process_name", Ph: "M", Pid: p.id,
				Args: map[string]any{"name": p.name},
			})
			ew.emit(traceEvent{
				Name: "process_sort_index", Ph: "M", Pid: p.id,
				Args: map[string]any{"sort_index": p.id},
			})
			for tid, tn := range p.tracks {
				ew.emit(traceEvent{
					Name: "thread_name", Ph: "M", Pid: p.id, Tid: tid,
					Args: map[string]any{"name": tn},
				})
				ew.emit(traceEvent{
					Name: "thread_sort_index", Ph: "M", Pid: p.id, Tid: tid,
					Args: map[string]any{"sort_index": tid},
				})
			}
			for _, s := range p.spans {
				d := usec(s.Dur)
				ew.emit(traceEvent{
					Name: s.Name, Cat: s.Cat, Ph: "X",
					Ts: usec(s.Start), Dur: &d,
					Pid: s.Proc, Tid: s.Track, ID: s.ID,
					Args: spanArgs(s),
				})
			}
			emitCounters(ew, p)
		}
		t.mu.Unlock()
	}
	ew.end()
	return ew.err
}

// watched is the counter set rendered as running totals in the Chrome export.
var watched = [...]sim.Counter{
	sim.CtrServerPages,
	sim.CtrRowsTransmitted,
	sim.CtrFileRowsWritten,
	sim.CtrFileRowsRead,
	sim.CtrMemRowsRead,
	sim.CtrCCUpdates,
	sim.CtrSQLStatements,
}

// emitCounters renders one proc's counter tracks from its batch spans alone,
// one step per finished batch at the batch's end: the watched counters' totals
// over the batches so far (Span.Deltas), and the budget utilization and tier
// residency the middleware recorded as attributes of the batch span.
func emitCounters(ew *eventWriter, p *proc) {
	var total sim.CounterVec
	for _, s := range p.spans {
		if s.Cat != CatBatch || s.Deltas == nil {
			continue
		}
		total.Add(s.Deltas)
		track := func(name string, args map[string]any) {
			ew.emit(traceEvent{Name: name, Ph: "C", Ts: usec(s.Start + s.Dur), Pid: p.id, Args: args})
		}
		for _, c := range watched {
			track(c.String(), map[string]any{"value": total.Get(c)})
		}
		if AttrInt(s.Attrs, "mem_used_bytes", -1) < 0 {
			continue // the batch failed before its bookkeeping
		}
		for _, key := range []string{"mem_used_bytes", "file_used_bytes", "files_live"} {
			track(key, map[string]any{"value": AttrInt(s.Attrs, key, 0)})
		}
		track("tier_residency", map[string]any{
			"server": AttrInt(s.Attrs, "nodes_server", 0),
			"file":   AttrInt(s.Attrs, "nodes_file", 0),
			"memory": AttrInt(s.Attrs, "nodes_memory", 0),
		})
	}
}

// spanArgs builds the args payload for a span's trace event.
func spanArgs(s *Span) map[string]any {
	args := make(map[string]any)
	if s.Parent != 0 {
		args["parent"] = s.Parent
	}
	if s.Source != "" {
		args["source"] = s.Source
	}
	if len(s.Nodes) > 0 {
		args["nodes"] = s.Nodes
	}
	if s.Rows != 0 {
		args["rows"] = s.Rows
	}
	if s.Bytes != 0 {
		args["bytes"] = s.Bytes
	}
	if s.NParts > 0 {
		args["partition"] = fmt.Sprintf("%d/%d", s.Part, s.NParts)
	}
	for _, a := range s.Attrs {
		if a.S != "" {
			args[a.Key] = a.S
		} else {
			args[a.Key] = a.I
		}
	}
	if len(args) == 0 {
		return nil
	}
	return args
}

// eventWriter streams the traceEvents array with one event per line. A trace
// with zero events renders as a compact empty array — `"traceEvents":[]` —
// so an empty (or nil) trace still exports a valid, loadable document and
// callers never need to guard the zero-span case.
type eventWriter struct {
	w     io.Writer
	err   error
	first bool
}

func (ew *eventWriter) begin() {
	ew.first = true
	ew.write([]byte("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["))
}

func (ew *eventWriter) end() {
	if !ew.first {
		ew.write([]byte("\n"))
	}
	ew.write([]byte("]}\n"))
}

func (ew *eventWriter) emit(ev traceEvent) {
	if ew.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		ew.err = err
		return
	}
	if ew.first {
		ew.write([]byte("\n"))
	} else {
		ew.write([]byte(",\n"))
	}
	ew.first = false
	ew.write(b)
}

func (ew *eventWriter) write(b []byte) {
	if ew.err != nil {
		return
	}
	_, ew.err = ew.w.Write(b)
}

// ndSpan is the NDJSON projection of a span: flat, self-describing, stable
// field order.
type ndSpan struct {
	Type    string `json:"type"`
	Proc    int    `json:"proc"`
	ProcN   string `json:"proc_name"`
	Track   int    `json:"track"`
	TrackN  string `json:"track_name"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Cat     string `json:"cat"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Source  string `json:"source,omitempty"`
	Nodes   []int  `json:"nodes,omitempty"`
	Rows    int64  `json:"rows,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"`
	Part    string `json:"part,omitempty"`
	Overlay bool   `json:"overlay,omitempty"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// ndSummary is the trailer line closing every NDJSON export: it makes the
// document self-describing (a consumer can verify it read every span) and
// guarantees an empty — even nil — trace still emits one valid JSON line
// rather than zero bytes.
type ndSummary struct {
	Type  string `json:"type"`
	Procs int    `json:"procs"`
	Spans int    `json:"spans"`
}

// WriteNDJSON writes one JSON object per span, one per line, in deterministic
// order (procs in registration order, spans in record order), closed by one
// `{"type":"trace", ...}` summary line — the grep/jq-friendly counterpart of
// WriteChrome.
func (t *Trace) WriteNDJSON(w io.Writer) error {
	procs, spans := 0, 0
	if t != nil {
		t.mu.Lock()
		defer t.mu.Unlock()
		procs = len(t.procs)
		for _, p := range t.procs {
			spans += len(p.spans)
			for _, s := range p.spans {
				ns := ndSpan{
					Type: "span", Proc: p.id, ProcN: p.name,
					Track: s.Track, TrackN: p.tracks[s.Track],
					ID: s.ID, Parent: s.Parent, Cat: s.Cat, Name: s.Name,
					StartNS: s.Start, DurNS: s.Dur,
					Source: s.Source, Nodes: s.Nodes, Rows: s.Rows, Bytes: s.Bytes,
					Overlay: s.Overlay,
					Attrs:   s.Attrs,
				}
				if s.NParts > 0 {
					ns.Part = strconv.Itoa(s.Part) + "/" + strconv.Itoa(s.NParts)
				}
				b, err := json.Marshal(ns)
				if err != nil {
					return err
				}
				if _, err := w.Write(append(b, '\n')); err != nil {
					return err
				}
			}
		}
	}
	b, err := json.Marshal(ndSummary{Type: "trace", Procs: procs, Spans: spans})
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
