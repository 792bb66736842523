package obs

// Regression for the export layer's map-ordering contract: every map that
// reaches the Chrome export (traceEvent.Args — span attrs rendered into args,
// the counter tracks derived from batch spans) must serialize in sorted key
// order, so two traces holding the same logical batch — its attributes
// appended in different orders — export byte-identical documents.

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

// buildBatchTrace records one finished batch span whose budget and residency
// attributes are appended in the given key order, then one batch span that
// failed before its bookkeeping (no attributes); the logical content is
// identical for any permutation.
func buildBatchTrace(keyOrder []string) *Trace {
	tr := NewTrace()
	meter := sim.NewDefaultMeter()
	root := tr.Proc("run", meter)
	sp := root.Start(CatBatch, "batch").SetSource("server")
	meter.Charge(sim.CtrServerPages, 1000, 5)
	for _, k := range keyOrder {
		sp.Attr(k, int64(len(k))*7) // value derives from the key, not the slot
	}
	sp.End()
	failed := root.Start(CatBatch, "batch")
	meter.Charge(sim.CtrServerPages, 1000, 2)
	failed.End()
	return tr
}

func TestMetricsExportByteIdenticalAcrossMapInsertionOrder(t *testing.T) {
	forward := []string{"mem_used_bytes", "file_used_bytes", "files_live", "nodes_server", "nodes_file", "nodes_memory"}
	backward := make([]string, len(forward))
	for i, k := range forward {
		backward[len(forward)-1-i] = k
	}

	var ca, cb bytes.Buffer
	if err := buildBatchTrace(forward).WriteChrome(&ca); err != nil {
		t.Fatal(err)
	}
	if err := buildBatchTrace(backward).WriteChrome(&cb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca.Bytes(), cb.Bytes()) {
		t.Errorf("chrome export depends on attribute insertion order:\n%s\nvs\n%s", ca.Bytes(), cb.Bytes())
	}

	// The counter tracks come from the batch spans alone, one step per batch
	// end: the watched counters as running totals over every finished batch,
	// budget and residency only where the batch recorded them.
	out := ca.String()
	for want, n := range map[string]int{
		`"name":"server_pages_read","ph":"C","ts":5.000,"pid":1,"tid":0,"args":{"value":5}`:                      1,
		`"name":"server_pages_read","ph":"C","ts":7.000,"pid":1,"tid":0,"args":{"value":7}`:                      1,
		`"name":"mem_used_bytes","ph":"C","ts":5.000,"pid":1,"tid":0,"args":{"value":98}`:                        1,
		`"name":"tier_residency","ph":"C","ts":5.000,"pid":1,"tid":0,"args":{"file":70,"memory":84,"server":84}`: 1,
		`"name":"tier_residency"`: 1,
		`"name":"files_live"`:     1,
		`"name":"cc_updates"`:     2,
	} {
		if got := strings.Count(out, want); got != n {
			t.Errorf("chrome export has %d of %s, want %d\n%s", got, want, n, out)
		}
	}
}

// TestSpanArgsExportSorted pins the same property for span attributes routed
// through traceEvent.Args maps in the Chrome export.
func TestSpanArgsExportSorted(t *testing.T) {
	build := func(order []string) []byte {
		tr := NewTrace()
		meter := sim.NewDefaultMeter()
		root := tr.Proc("p", meter)
		sp := root.Start("cat", "span")
		for i, k := range order {
			sp.Attr(k, int64(10+i%2))
		}
		sp.Attr("zz", 1).Attr("aa", 2) // fixed tail so both runs agree on values
		sp.End()
		var b bytes.Buffer
		if err := tr.WriteChrome(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	// Attrs are an ordered slice; identical call order must mean identical
	// bytes, and the map-valued Args they pass through must not scramble runs
	// with the same call order.
	a := build([]string{"k1", "k2", "k3"})
	b := build([]string{"k1", "k2", "k3"})
	if !bytes.Equal(a, b) {
		t.Error("identical span attr sequences export different bytes")
	}
}
