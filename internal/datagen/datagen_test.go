package datagen

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/dtree"
)

// classHist returns the count of each class value in the dataset.
func classHist(ds *data.Dataset) []int64 {
	h := make([]int64, ds.Schema.Class.Card)
	for _, r := range ds.Rows {
		h[r.Class()]++
	}
	return h
}

func TestTreeDataDeterministic(t *testing.T) {
	cfg := TreeGenConfig{Leaves: 12, Attrs: 8, Values: 3, Classes: 4, CasesPerLeaf: 30, Seed: 9}
	a, la, err := GenerateTreeData(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, lb, err := GenerateTreeData(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if la != lb || a.N() != b.N() {
		t.Fatalf("sizes differ: %d/%d leaves, %d/%d rows", la, lb, a.N(), b.N())
	}
	for i := range a.Rows {
		if !reflect.DeepEqual(a.Rows[i], b.Rows[i]) {
			t.Fatalf("row %d differs", i)
		}
	}
	c, _, _ := GenerateTreeData(TreeGenConfig{Leaves: 12, Attrs: 8, Values: 3, Classes: 4, CasesPerLeaf: 30, Seed: 10})
	same := c.N() == a.N()
	if same {
		same = reflect.DeepEqual(a.Rows[0], c.Rows[0]) && reflect.DeepEqual(a.Rows[1], c.Rows[1])
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestTreeDataValidAndSized(t *testing.T) {
	cfg := TreeGenConfig{Leaves: 20, Attrs: 10, Values: 4, Classes: 5, CasesPerLeaf: 25, Seed: 1}
	ds, leaves, err := GenerateTreeData(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if leaves < 20 {
		t.Errorf("leaves = %d, want >= 20", leaves)
	}
	// Complete splits may overshoot the leaf target by at most one split's
	// fanout.
	if leaves > 20+32 {
		t.Errorf("leaves = %d overshoots the target", leaves)
	}
	if ds.N() < leaves { // at least one case per leaf
		t.Errorf("rows = %d < leaves", ds.N())
	}
	// All classes appear.
	hist := classHist(ds)
	for c, n := range hist {
		if n == 0 {
			t.Errorf("class %d absent", c)
		}
	}
}

// TestTreeDataIsLearnable: data generated from a tree must be classifiable
// to high accuracy by a grown tree (§5.1.1: "the effect of applying
// classification on the data will be the given decision tree").
func TestTreeDataIsLearnable(t *testing.T) {
	ds, _, err := GenerateTreeData(TreeGenConfig{
		Leaves: 15, Attrs: 8, Values: 3, ValuesStdDev: 0, Classes: 4, CasesPerLeaf: 80, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := dtree.BuildInMemory(ds, dtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := tree.Accuracy(ds); acc < 0.999 {
		t.Errorf("accuracy = %v, want ~1 (noise-free generated data)", acc)
	}
}

func TestTreeDataSkewProducesDeeperTrees(t *testing.T) {
	flat, _, err := GenerateTreeData(TreeGenConfig{
		Leaves: 20, Attrs: 20, Values: 2, ValuesStdDev: 0, Classes: 3, CasesPerLeaf: 40, Seed: 4, Skew: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	deep, _, err := GenerateTreeData(TreeGenConfig{
		Leaves: 20, Attrs: 20, Values: 2, ValuesStdDev: 0, Classes: 3, CasesPerLeaf: 40, Seed: 4, Skew: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tf, err := dtree.BuildInMemory(flat, dtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	td, err := dtree.BuildInMemory(deep, dtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if td.MaxDepth <= tf.MaxDepth {
		t.Errorf("skewed generator gave depth %d, balanced %d; want deeper", td.MaxDepth, tf.MaxDepth)
	}
}

func TestTreeDataClassNoise(t *testing.T) {
	clean, _, _ := GenerateTreeData(TreeGenConfig{
		Leaves: 10, Attrs: 6, Values: 3, ValuesStdDev: 0, Classes: 3, CasesPerLeaf: 50, Seed: 5,
	})
	noisy, _, _ := GenerateTreeData(TreeGenConfig{
		Leaves: 10, Attrs: 6, Values: 3, ValuesStdDev: 0, Classes: 3, CasesPerLeaf: 50, Seed: 5, ClassNoise: 0.3,
	})
	diff := 0
	n := clean.N()
	if noisy.N() < n {
		n = noisy.N()
	}
	for i := 0; i < n; i++ {
		if clean.Rows[i].Class() != noisy.Rows[i].Class() {
			diff++
		}
	}
	if diff == 0 {
		t.Error("class noise had no effect")
	}
}

func TestGaussiansShapeAndDeterminism(t *testing.T) {
	cfg := GaussianConfig{Dims: 10, Components: 4, PerClass: 100, Bins: 5, Seed: 2}
	a, err := GenerateGaussians(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.N() != 400 || a.Schema.NumAttrs() != 10 || a.Schema.Class.Card != 4 {
		t.Fatalf("shape: %d rows, %d attrs, %d classes", a.N(), a.Schema.NumAttrs(), a.Schema.Class.Card)
	}
	for _, at := range a.Schema.Attrs {
		if at.Card != 5 {
			t.Errorf("attr %s card %d, want 5", at.Name, at.Card)
		}
	}
	b, _ := GenerateGaussians(cfg)
	for i := range a.Rows {
		if !reflect.DeepEqual(a.Rows[i], b.Rows[i]) {
			t.Fatal("not deterministic")
		}
	}
	hist := classHist(a)
	for c, n := range hist {
		if n != 100 {
			t.Errorf("class %d has %d rows, want 100", c, n)
		}
	}
}

func TestGaussiansAreSeparable(t *testing.T) {
	ds, err := GenerateGaussians(GaussianConfig{Dims: 16, Components: 4, PerClass: 300, Bins: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := dtree.BuildInMemory(ds, dtree.Options{MaxDepth: 10, MinRows: 10})
	if err != nil {
		t.Fatal(err)
	}
	if acc := tree.Accuracy(ds); acc < 0.8 {
		t.Errorf("gaussian tree accuracy = %v, want >= 0.8", acc)
	}
}

func TestGaussiansConfigErrors(t *testing.T) {
	if _, err := GenerateGaussians(GaussianConfig{Dims: -1, Components: 2, PerClass: 10, Bins: 4, Seed: 1}); err == nil {
		t.Error("negative dims accepted")
	}
	if _, err := GenerateGaussians(GaussianConfig{Dims: 2, Components: 2, PerClass: 10, Bins: 1, Seed: 1}); err == nil {
		t.Error("one bin accepted")
	}
}

func TestCensusShapeAndClassBalance(t *testing.T) {
	ds, err := GenerateCensus(CensusConfig{Rows: 5000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if ds.N() != 5000 || ds.Schema.Class.Card != 2 || ds.Schema.NumAttrs() != 12 {
		t.Fatalf("shape: %d rows, %d attrs", ds.N(), ds.Schema.NumAttrs())
	}
	hist := classHist(ds)
	minority := float64(hist[1]) / float64(ds.N())
	if hist[1] > hist[0] {
		minority = float64(hist[0]) / float64(ds.N())
	}
	// The income class is skewed but both classes must be well represented
	// (the real Adult data is ~24% >50K).
	if minority < 0.08 || minority > 0.45 {
		t.Errorf("minority class fraction = %.3f, want in [0.08, 0.45]", minority)
	}
}

func TestCensusIsLearnableAboveBaseRate(t *testing.T) {
	ds, err := GenerateCensus(CensusConfig{Rows: 8000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := dtree.BuildInMemory(ds, dtree.Options{MaxDepth: 8, MinRows: 50})
	if err != nil {
		t.Fatal(err)
	}
	hist := classHist(ds)
	base := float64(hist[0]) / float64(ds.N())
	if base < 0.5 {
		base = 1 - base
	}
	if acc := tree.Accuracy(ds); acc < base+0.03 {
		t.Errorf("accuracy %.3f not above majority base rate %.3f", acc, base)
	}
}

func TestCensusDeterministic(t *testing.T) {
	a, _ := GenerateCensus(CensusConfig{Rows: 1000, Seed: 6})
	b, _ := GenerateCensus(CensusConfig{Rows: 1000, Seed: 6})
	for i := range a.Rows {
		if !reflect.DeepEqual(a.Rows[i], b.Rows[i]) {
			t.Fatal("census not deterministic")
		}
	}
}

func TestNormalizeDefaults(t *testing.T) {
	tc := TreeGenConfig{}.Normalize()
	if tc.Leaves != 500 || tc.Attrs != 25 || tc.Values != 4 || tc.Classes != 10 || !tc.CompleteSplit {
		t.Errorf("tree defaults: %+v", tc)
	}
	gc := GaussianConfig{}.Normalize()
	if gc.Dims != 100 || gc.Components != 10 || gc.Bins != 4 {
		t.Errorf("gaussian defaults: %+v", gc)
	}
	cc := CensusConfig{}.Normalize()
	if cc.Rows != 30000 || cc.Noise != 0.08 {
		t.Errorf("census defaults: %+v", cc)
	}
}

// TestPaperScaleArithmetic reproduces the paper's sizing: 500 leaves x ~950
// cases with 25 attributes is about 50 MB (§5.2.1).
func TestPaperScaleArithmetic(t *testing.T) {
	cfg := TreeGenConfig{}.Normalize() // 25 attrs
	rowBytes := int64(4 * (cfg.Attrs + 1))
	total := rowBytes * 500 * 950
	if mb := float64(total) / (1 << 20); mb < 45 || mb > 55 {
		t.Errorf("500 leaves x 950 cases = %.1f MB, paper says ~50 MB", mb)
	}
}

func TestClusteredShapeAndDeterminism(t *testing.T) {
	cfg := ClusteredConfig{Rows: 3000, Seed: 5, Regions: 6, Attrs: 4, Values: 3}
	ds, err := GenerateClustered(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 3000 {
		t.Fatalf("rows = %d, want 3000", ds.N())
	}
	if got := ds.Schema.NumAttrs(); got != 5 {
		t.Fatalf("attrs = %d, want 5 (region + 4)", got)
	}
	if ds.Schema.Attrs[0].Name != "region" || ds.Schema.Attrs[0].Card != 6 {
		t.Fatalf("attr 0 = %+v, want region/card 6", ds.Schema.Attrs[0])
	}
	// Clustered placement: region values ascend monotonically through the
	// row order (contiguous equal slabs), and every region holds Rows/Regions
	// rows.
	counts := make([]int, cfg.Regions)
	prev := 0
	for i, r := range ds.Rows {
		v := int(r[0])
		if v < prev {
			t.Fatalf("row %d: region %d after %d — placement not contiguous", i, v, prev)
		}
		prev = v
		counts[v]++
	}
	for v, n := range counts {
		if n != 500 {
			t.Fatalf("region %d holds %d rows, want 500", v, n)
		}
	}
	// Same seed, same bytes; different seed, different rows.
	ds2, err := GenerateClustered(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Rows {
		for j := range ds.Rows[i] {
			if ds.Rows[i][j] != ds2.Rows[i][j] {
				t.Fatalf("row %d differs across identical seeds", i)
			}
		}
	}
	cfg.Seed = 6
	ds3, err := GenerateClustered(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range ds.Rows {
		for j := range ds.Rows[i] {
			if ds.Rows[i][j] != ds3.Rows[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestClusteredDefaultsAndClassSignal(t *testing.T) {
	ds, err := GenerateClustered(ClusteredConfig{Rows: 4000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.Schema.NumAttrs(); got != 6 {
		t.Fatalf("default attrs = %d, want 6 (region + 5)", got)
	}
	// The class rule is a noisy parity of region and the first attributes:
	// within one (region, a1, a2) cell the majority class must be far from
	// a coin flip.
	var agree, total int
	for _, r := range ds.Rows {
		want := (int(r[0]) + int(r[1])*2 + int(r[2])) % 2
		total++
		if int(r[len(r)-1]) == want {
			agree++
		}
	}
	if frac := float64(agree) / float64(total); frac < 0.9 {
		t.Fatalf("class agrees with rule on %.2f of rows, want >= 0.9 (noise 0.05)", frac)
	}
}

// TestLoadCSV: Load reads a CSV path, taking precedence over the generator,
// to the dataset data.ReadCSV reads from the same text; a missing file is an
// error.
func TestLoadCSV(t *testing.T) {
	const text = "outlook,windy,play\nsunny,no,yes\nrain,yes,no\nsunny,yes,no\novercast,no,yes\n"
	path := filepath.Join(t.TempDir(), "weather.csv")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, "census", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := data.ReadCSV(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Load = %+v\nwant %+v", got, want)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.csv"), "census", 100, 1); err == nil {
		t.Error("Load of a missing CSV succeeded")
	}
}
