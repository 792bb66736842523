package serve

import (
	"database/sql"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/sim"
)

// TestMetamorphicRelationsOverWire runs two of the middleware's metamorphic
// relations (mw's TestMetamorphicRelations) through served: each table is
// served by a daemon of its own and built by a loopback
// BUILD TREE … OUTPUT TREE. On its census and tree-data cases, the tree the
// daemon streams
//   - from a permutation of the rows is the tree an in-process build grows
//     from the rows, and
//   - from the rows repeated k times, with MINROWS k times larger, is that
//     tree with every count k times larger.
//
// Trees are compared line by line without node ids, as sameNode compares
// them: ids follow a build's batches, which staging sizes by rows. The wire
// has no measure option, so the tree case builds with entropy where the
// in-process test uses Gini.
func TestMetamorphicRelationsOverWire(t *testing.T) {
	census, err := datagen.GenerateCensus(datagen.CensusConfig{Rows: 4000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	gen := datagen.TreeGenConfig{Seed: 5, Leaves: 30, Attrs: 8}.Normalize()
	gen.CasesPerLeaf = 50
	tree, _, err := datagen.GenerateTreeData(gen)
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	for _, c := range []struct {
		name string
		ds   *data.Dataset
		opt  dtree.Options
	}{
		{"census", census, dtree.Options{MaxDepth: 6, MinRows: 20}},
		{"tree", tree, dtree.Options{MinRows: 10}},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := inProcessBuild(t, c.ds, c.opt)
			if want.Root.Leaf {
				t.Fatal("the reference build is a single leaf: nothing to compare")
			}
			rng := rand.New(rand.NewSource(int64(len(c.ds.Rows))))
			permuted := &data.Dataset{Schema: c.ds.Schema, Rows: slices.Clone(c.ds.Rows)}
			rng.Shuffle(len(permuted.Rows), func(i, j int) {
				permuted.Rows[i], permuted.Rows[j] = permuted.Rows[j], permuted.Rows[i]
			})
			repeated := &data.Dataset{Schema: c.ds.Schema}
			for _, r := range c.ds.Rows {
				for range k {
					repeated.Rows = append(repeated.Rows, r)
				}
			}
			kOpt := c.opt
			kOpt.MinRows *= k

			if err := sameLines(wireBuild(t, permuted, c.opt), want.DumpLines()); err != nil {
				t.Errorf("permuted rows: %v", err)
			}
			scaled := *want
			scaled.Root = scaledCounts(want.Root, k)
			if err := sameLines(wireBuild(t, repeated, kOpt), scaled.DumpLines()); err != nil {
				t.Errorf("rows repeated %d times: %v", k, err)
			}
		})
	}
}

// inProcessBuild grows the tree of ds with dtree.Build through a middleware
// configured as the daemon's fleet configures its sessions.
func inProcessBuild(t *testing.T, ds *data.Dataset, opt dtree.Options) *dtree.Tree {
	t.Helper()
	srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseCfg()
	cfg.Dir = t.TempDir()
	m, err := mw.New(srv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	tree, err := dtree.Build(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// wireBuild serves ds on a daemon of its own and returns the tree dump a
// loopback BUILD TREE with opt's depth and size limits streams back.
func wireBuild(t *testing.T, ds *data.Dataset, opt dtree.Options) []string {
	t.Helper()
	srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startDaemonOn(t, srv, true)
	defer stop()
	db, err := sql.Open("ccsql", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	stmt := fmt.Sprintf("BUILD TREE MINROWS %d OUTPUT TREE", opt.MinRows)
	if opt.MaxDepth > 0 {
		stmt = fmt.Sprintf("BUILD TREE MAXDEPTH %d MINROWS %d OUTPUT TREE", opt.MaxDepth, opt.MinRows)
	}
	return queryStrings(t, db, stmt)
}

// scaledCounts returns a copy of the subtree at n with every row and class
// count multiplied by k.
func scaledCounts(n *dtree.Node, k int64) *dtree.Node {
	c := *n
	c.Rows *= k
	c.ClassCounts = slices.Clone(n.ClassCounts)
	for i := range c.ClassCounts {
		c.ClassCounts[i] *= k
	}
	c.Children = make([]*dtree.Node, len(n.Children))
	for i, ch := range n.Children {
		c.Children[i] = scaledCounts(ch, k)
	}
	return &c
}

// sameLines reports the first line where two tree dumps differ once node ids
// are dropped: rows, class histogram, label, leaf-ness and split.
func sameLines(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d dump lines, reference %d", len(got), len(want))
	}
	for i := range got {
		if g, w := withoutID(got[i]), withoutID(want[i]); g != w {
			return fmt.Errorf("line %d: %q, reference %q", i, g, w)
		}
	}
	return nil
}

// withoutID drops the id from a dump's "node <id> rows=…" line.
func withoutID(line string) string {
	indent := len(line) - len(strings.TrimLeft(line, " "))
	rest, ok := strings.CutPrefix(line[indent:], "node ")
	if !ok {
		return line
	}
	_, rest, _ = strings.Cut(rest, " ")
	return line[:indent] + "node " + rest
}
