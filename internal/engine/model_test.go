package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/sim"
	"repro/internal/storage"
)

// catalogFields is what a fuzzed catalog row sets, one byte each: parent + 1,
// arm + 1, flags (bit 0 leaf, bit 1 multiway), split_attr, split_val, arm_val
// (ignored at the root), class, c0, c1. The node id is the row's index.
const catalogFields = 9

// catalogSQL decodes spec into a two-class catalog of at most 8 nodes over
// two columns with values 0–3 — every field small, so most decodes are near a
// valid model and the rest fail the load — and returns its CREATE TABLE and,
// when it has rows, its INSERT.
func catalogSQL(name string, spec []byte) []string {
	stmts := []string{"CREATE TABLE " + ModelCatalogTable(name) + " (" + strings.Join(catalogCols(2), " INT, ") + " INT)"}
	var rows []string
	for id := 0; id < 8 && len(spec) >= catalogFields; id++ {
		b := spec[:catalogFields]
		spec = spec[catalogFields:]
		armVal := int(b[5] % 4)
		if id == 0 {
			armVal = 2 // the root's arm_val is the training-schema width
		}
		rows = append(rows, fmt.Sprintf("(%d, %d, %d, %d, %d, %d, %d, %d, %d, %d, %d)",
			id, int(b[0]%9)-1, int(b[1]%4)-1, b[2]&1, b[2]>>1&1, b[3]%3, b[4]%4, armVal, b[6]%3, b[7]%4, b[8]%4))
	}
	if len(rows) > 0 {
		stmts = append(stmts, "INSERT INTO "+ModelCatalogTable(name)+" VALUES "+strings.Join(rows, ", "))
	}
	return stmts
}

// catalogSpec encodes catalog rows — parent, arm, leaf, multiway, split_attr,
// split_val, arm_val, class, c0, c1 — as catalogSQL reads them.
func catalogSpec(rows ...[10]int) []byte {
	var spec []byte
	for _, r := range rows {
		spec = append(spec, byte(r[0]+1), byte(r[1]+1), byte(r[2]|r[3]<<1))
		for _, v := range r[4:] {
			spec = append(spec, byte(v))
		}
	}
	return spec
}

// The two catalogs a path trie cannot represent, which Validate refuses: a
// multiway root whose two arms both route value 1, and a node whose parent
// is a leaf (so the parent does not list it).
var (
	dupArmCatalog = catalogSpec(
		[10]int{-1, -1, 0, 1, 0, 0, 2, 0, 2, 2},
		[10]int{0, 0, 1, 0, 0, 0, 1, 0, 3, 1},
		[10]int{0, 1, 1, 0, 0, 0, 1, 1, 1, 3},
	)
	orphanCatalog = catalogSpec(
		[10]int{-1, -1, 0, 0, 0, 1, 2, 0, 2, 2},
		[10]int{0, 0, 1, 0, 0, 0, 1, 0, 2, 0},
		[10]int{0, 1, 1, 0, 0, 0, 1, 1, 0, 2},
		[10]int{1, 0, 1, 0, 0, 0, 0, 1, 0, 1},
	)
)

// catalogCases is a table over two columns with values 0–3 in four full row
// groups and a short one, each with its own zone: every pair of values; A1
// fixed at 2; A1 in {0, 1} with A2 fixed at 3; A1 in {1, 3} with A2 in {0, 2};
// every pair again. Compiled against it, a path's conditions hold throughout
// a group, drop their subtree or compare a code, and a multiway node can lose
// every arm.
func catalogCases() *data.Dataset {
	ds := data.NewDataset(data.NewSchema(2, 4, 2))
	zones := []func(i int) (int, int){
		func(i int) (int, int) { return i % 4, i / 4 % 4 },
		func(i int) (int, int) { return 2, i % 4 },
		func(i int) (int, int) { return i % 2, 3 },
		func(i int) (int, int) { return 1 + 2*(i%2), 2 * (i / 2 % 2) },
		func(i int) (int, int) { return i % 4, i / 4 % 4 },
	}
	for z, zone := range zones {
		n := storage.RowGroupSize
		if z == len(zones)-1 {
			n = 100
		}
		for i := 0; i < n; i++ {
			a, b := zone(i)
			ds.Append(data.Row{data.Value(a), data.Value(b), data.Value(i % 2)})
		}
	}
	return ds
}

// treeWalk is the reference decision: from the root, follow the child whose
// edge the row takes — Kids[0] on A = Val and Kids[1] otherwise at a binary
// split, the arm listing the row's value at a multiway one — and stop at a
// leaf or a multiway node with no such arm. It returns the node and its depth.
func treeWalk(m *Model, row data.Row) (int32, int64) {
	n, depth := int32(0), int64(0)
	for {
		nd := &m.Nodes[n]
		if nd.Leaf {
			return n, depth
		}
		next := int32(-1)
		switch {
		case !nd.Multiway && row[nd.Attr] == nd.Val:
			next = nd.Kids[0]
		case !nd.Multiway:
			next = nd.Kids[1]
		default:
			for k, v := range nd.Vals {
				if v == row[nd.Attr] {
					next = nd.Kids[k]
				}
			}
		}
		if next < 0 {
			return n, depth
		}
		n, depth = next, depth+1
	}
}

// FuzzModelCatalog loads small client-written catalogs (catalogSQL) through
// CREATE TABLE, INSERT and the model load. A catalog either fails to load or
// every scorer decides each row of catalogCases as treeWalk does: the
// row-space descent of the model's path trie, CLASSIFY() over the table, and
// SCORE TABLE — the same class and decision node per row,
// and the same model_node_probes, the decision nodes' depths + 1.
func FuzzModelCatalog(f *testing.F) {
	f.Add(dupArmCatalog)
	f.Add(orphanCatalog)
	f.Add([]byte{}) // no rows: the load once indexed the missing root
	// A binary root over A1 = 1, its first child a multiway node on A2 with
	// arms 0 and 3 (the others fall back to it), its second a leaf.
	f.Add(catalogSpec(
		[10]int{-1, -1, 0, 0, 0, 1, 2, 0, 2, 2},
		[10]int{0, 0, 0, 1, 1, 0, 1, 1, 1, 2},
		[10]int{0, 1, 1, 0, 0, 0, 1, 0, 1, 0},
		[10]int{1, 0, 1, 0, 0, 0, 0, 0, 1, 0},
		[10]int{1, 1, 1, 0, 0, 0, 3, 1, 0, 1},
	))
	ds := catalogCases()
	f.Fuzz(func(t *testing.T, spec []byte) {
		srv, err := NewServer(New(sim.NewDefaultMeter(), 0), "cases", ds)
		if err != nil {
			t.Fatal(err)
		}
		e := srv.Engine()
		for _, stmt := range catalogSQL("f", spec) {
			e.MustExec(stmt)
		}
		m, err := e.Model("f")
		if err != nil {
			return
		}
		want := make([]int32, len(ds.Rows))
		var wantProbes int64
		for i, row := range ds.Rows {
			n, depth := treeWalk(m, row)
			want[i], wantProbes = n, wantProbes+depth+1
			if got := m.trie.Descend(row); got != n {
				t.Fatalf("row %d %v: the path trie decides at node %d, the tree at node %d", i, row, got, n)
			}
			if got := m.Predict(row); got != m.Nodes[n].Class {
				t.Fatalf("row %d %v: Predict = %d, want %d", i, row, got, m.Nodes[n].Class)
			}
		}
		probes := func(run func()) int64 {
			before := e.meter.Count(sim.CtrModelProbes)
			run()
			return e.meter.Count(sim.CtrModelProbes) - before
		}
		var rs *ResultSet
		if got := probes(func() { rs, err = e.Exec("SELECT CLASSIFY(f, A1, A2) FROM cases") }); err != nil || got != wantProbes {
			t.Fatalf("CLASSIFY: %v, %d probes, want %d", err, got, wantProbes)
		}
		for i, r := range rs.Rows {
			if c := data.Value(r[0].I); c != m.Nodes[want[i]].Class {
				t.Fatalf("row %d: CLASSIFY = %d, want %d", i, c, m.Nodes[want[i]].Class)
			}
		}
		tbl, err := e.Table("cases")
		if err != nil {
			t.Fatal(err)
		}
		var res *ScoreResult
		if got := probes(func() { res, err = e.ScoreTable(tbl, m) }); err != nil || got != wantProbes {
			t.Fatalf("SCORE TABLE: %v, %d probes, want %d", err, got, wantProbes)
		}
		for i, n := range res.Nodes {
			if n != want[i] || res.Classes[i] != m.Nodes[n].Class {
				t.Fatalf("SCORE TABLE, row %d %v: class %d at node %d, want node %d",
					i, ds.Rows[i], res.Classes[i], n, want[i])
			}
		}
	})
}
