package nb

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cc"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/predicate"
	"repro/internal/sim"
)

// separableDataset: attribute 0 equals the class; other attributes are
// noise. Naive Bayes must classify it perfectly.
func separableDataset(n int, seed int64) *data.Dataset {
	rng := rand.New(rand.NewSource(seed))
	s := data.NewSchema(3, 3, 3)
	ds := data.NewDataset(s)
	for i := 0; i < n; i++ {
		c := data.Value(rng.Intn(3))
		ds.Append(data.Row{c, data.Value(rng.Intn(3)), data.Value(rng.Intn(3)), c})
	}
	return ds
}

func TestTrainInMemorySeparable(t *testing.T) {
	ds := separableDataset(900, 1)
	m, err := TrainInMemory(ds)
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(ds); acc != 1.0 {
		t.Errorf("accuracy = %v, want 1", acc)
	}
	if m.Rows != 900 {
		t.Errorf("Rows = %d", m.Rows)
	}
}

func TestPriorsSumToOne(t *testing.T) {
	ds := separableDataset(500, 2)
	m, err := TrainInMemory(ds)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range m.Priors {
		if p < 0 || p > 1 {
			t.Errorf("prior %v out of range", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("priors sum to %v", sum)
	}
}

func TestConditionalsNormalized(t *testing.T) {
	ds := separableDataset(500, 3)
	m, err := TrainInMemory(ds)
	if err != nil {
		t.Fatal(err)
	}
	// For each attribute and class, sum over values of P(v|c) must be 1.
	for a := 0; a < ds.Schema.NumAttrs(); a++ {
		for c := 0; c < ds.Schema.Class.Card; c++ {
			var sum float64
			for v := 0; v < ds.Schema.Attrs[a].Card; v++ {
				sum += math.Exp(m.CondLog[a][v][c])
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("P(A%d|c=%d) sums to %v", a+1, c, sum)
			}
		}
	}
}

func TestLaplaceSmoothingNoZeroProbabilities(t *testing.T) {
	ds := separableDataset(100, 4)
	m, err := TrainInMemory(ds)
	if err != nil {
		t.Fatal(err)
	}
	for a := range m.CondLog {
		for v := range m.CondLog[a] {
			for c := range m.CondLog[a][v] {
				if math.IsInf(m.CondLog[a][v][c], -1) {
					t.Fatalf("zero conditional at a=%d v=%d c=%d despite smoothing", a, v, c)
				}
			}
		}
	}
}

func TestTrainViaMiddlewareMatchesInMemory(t *testing.T) {
	ds := separableDataset(600, 5)
	srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mw.New(srv, mw.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	got, err := Train(m)
	if err != nil {
		t.Fatal(err)
	}
	want, err := TrainInMemory(ds)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != want.Rows {
		t.Fatalf("rows %d vs %d", got.Rows, want.Rows)
	}
	for c := range got.Priors {
		if math.Abs(got.Priors[c]-want.Priors[c]) > 1e-12 {
			t.Fatalf("prior %d differs", c)
		}
	}
	for a := range got.CondLog {
		for v := range got.CondLog[a] {
			for c := range got.CondLog[a][v] {
				if math.Abs(got.CondLog[a][v][c]-want.CondLog[a][v][c]) > 1e-12 {
					t.Fatalf("conditional (%d,%d,%d) differs", a, v, c)
				}
			}
		}
	}
	// Exactly one server scan trained the model.
	if scans := srv.Meter().Count(sim.CtrServerScans); scans != 1 {
		t.Errorf("training used %d scans, want 1", scans)
	}
}

// TestTrainReadsRootBeforeClose: closing the root hands its counts table back
// to the middleware, and a request still queued behind the root — serviced in
// Train's next Step — is counted into that very table. The model must still be
// the one the root's counts give.
func TestTrainReadsRootBeforeClose(t *testing.T) {
	ds := separableDataset(600, 7)
	srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mw.New(srv, mw.Config{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// Node 7 counts a third of the rows; its estimate ranks it behind the root.
	if err := m.Enqueue(&mw.Request{
		NodeID: 7, ParentID: -1, Path: predicate.Conj{{Attr: 0, Op: predicate.Eq, Val: 1}},
		Attrs: []int{1, 2}, Rows: 200, EstCC: 1 << 40,
	}); err != nil {
		t.Fatal(err)
	}
	got, err := Train(m)
	if err != nil {
		t.Fatal(err)
	}
	var all []int
	for a := range ds.Schema.NumCols() {
		all = append(all, a)
	}
	counts := cc.New()
	for _, r := range ds.Rows {
		counts.AddRow(r, all)
	}
	want, err := FromCounts(ds.Schema, counts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("model trained through the middleware differs from the one over every row: priors %v, want %v", got.Priors, want.Priors)
	}
	if steps := srv.Meter().Count(sim.CtrBatches); steps != 2 {
		t.Fatalf("%d batches, want 2: node 7 no longer follows the root", steps)
	}
}

func TestPredictBeatsChanceOnGaussians(t *testing.T) {
	ds, err := datagen.GenerateGaussians(datagen.GaussianConfig{
		Dims: 12, Components: 4, PerClass: 400, Bins: 4, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := TrainInMemory(ds)
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(ds); acc < 0.7 {
		t.Errorf("gaussian accuracy = %v, want >= 0.7", acc)
	}
}

func TestLogPosteriorsShape(t *testing.T) {
	ds := separableDataset(300, 7)
	m, _ := TrainInMemory(ds)
	lps := m.LogPosteriors(ds.Rows[0])
	if len(lps) != 3 {
		t.Fatalf("%d posteriors", len(lps))
	}
	best := 0
	for c := range lps {
		if lps[c] > lps[best] {
			best = c
		}
	}
	if data.Value(best) != m.Predict(ds.Rows[0]) {
		t.Error("Predict disagrees with LogPosteriors argmax")
	}
}

func TestFromCountsEmptyErrors(t *testing.T) {
	ds := separableDataset(10, 8)
	empty := data.NewDataset(ds.Schema)
	if _, err := TrainInMemory(empty); err == nil {
		t.Error("empty dataset accepted")
	}
}
