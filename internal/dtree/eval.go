package dtree

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/data"
)

// Classifier is anything that predicts a class for a row: decision trees,
// Naive Bayes models, or user-supplied models.
type Classifier interface {
	Predict(data.Row) data.Value
}

// Split partitions a dataset into train and test subsets with the given
// test fraction, deterministically for a seed. Rows are not copied.
func Split(ds *data.Dataset, testFrac float64, seed int64) (train, test *data.Dataset) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(ds.N())
	nTest := int(float64(ds.N()) * testFrac)
	train = data.NewDataset(ds.Schema)
	test = data.NewDataset(ds.Schema)
	for i, pi := range perm {
		if i < nTest {
			test.Rows = append(test.Rows, ds.Rows[pi])
		} else {
			train.Rows = append(train.Rows, ds.Rows[pi])
		}
	}
	return train, test
}

// ConfusionMatrix counts test outcomes: M[actual][predicted].
type ConfusionMatrix struct {
	Classes int
	M       [][]int64
}

// Evaluate runs the classifier over the dataset and tallies the confusion
// matrix.
func Evaluate(c Classifier, ds *data.Dataset) *ConfusionMatrix {
	k := ds.Schema.Class.Card
	cm := &ConfusionMatrix{Classes: k, M: make([][]int64, k)}
	for i := range cm.M {
		cm.M[i] = make([]int64, k)
	}
	for _, r := range ds.Rows {
		p := c.Predict(r)
		a := r.Class()
		if int(a) < k && int(p) < k && p >= 0 {
			cm.M[a][p]++
		}
	}
	return cm
}

// Total returns the number of evaluated rows.
func (cm *ConfusionMatrix) Total() int64 {
	var n int64
	for _, row := range cm.M {
		for _, v := range row {
			n += v
		}
	}
	return n
}

// Accuracy returns the fraction of correct predictions.
func (cm *ConfusionMatrix) Accuracy() float64 {
	n := cm.Total()
	if n == 0 {
		return 0
	}
	var correct int64
	for i := range cm.M {
		correct += cm.M[i][i]
	}
	return float64(correct) / float64(n)
}

// Precision returns the precision for one class (0 when the class is never
// predicted).
func (cm *ConfusionMatrix) Precision(class data.Value) float64 {
	var predicted int64
	for a := range cm.M {
		predicted += cm.M[a][class]
	}
	if predicted == 0 {
		return 0
	}
	return float64(cm.M[class][class]) / float64(predicted)
}

// Recall returns the recall for one class (0 when the class never occurs).
func (cm *ConfusionMatrix) Recall(class data.Value) float64 {
	var actual int64
	for _, v := range cm.M[class] {
		actual += v
	}
	if actual == 0 {
		return 0
	}
	return float64(cm.M[class][class]) / float64(actual)
}

// String renders the matrix with per-class precision/recall.
func (cm *ConfusionMatrix) String() string {
	var b strings.Builder
	b.WriteString("actual\\pred")
	for c := 0; c < cm.Classes; c++ {
		fmt.Fprintf(&b, "%8d", c)
	}
	b.WriteString("    recall\n")
	for a := 0; a < cm.Classes; a++ {
		fmt.Fprintf(&b, "%11d", a)
		for p := 0; p < cm.Classes; p++ {
			fmt.Fprintf(&b, "%8d", cm.M[a][p])
		}
		fmt.Fprintf(&b, "  %8.3f\n", cm.Recall(data.Value(a)))
	}
	b.WriteString("  precision")
	for p := 0; p < cm.Classes; p++ {
		fmt.Fprintf(&b, "%8.3f", cm.Precision(data.Value(p)))
	}
	fmt.Fprintf(&b, "  acc=%.4f\n", cm.Accuracy())
	return b.String()
}

// WriteDot renders the tree in Graphviz DOT format.
func (t *Tree) WriteDot(w interface{ WriteString(string) (int, error) }) error {
	if _, err := w.WriteString("digraph tree {\n  node [shape=box, fontname=\"monospace\"];\n"); err != nil {
		return err
	}
	var werr error
	emit := func(s string) {
		if werr == nil {
			_, werr = w.WriteString(s)
		}
	}
	t.Walk(func(n *Node) {
		if n.Leaf {
			emit(fmt.Sprintf("  n%d [label=\"%s = %d\\nn=%d\", style=filled, fillcolor=lightgrey];\n",
				n.ID, t.Schema.Class.Name, n.Class, n.Rows))
		} else {
			attr := t.Schema.Attrs[n.SplitAttr].Name
			if n.Multiway {
				emit(fmt.Sprintf("  n%d [label=\"%s?\\nn=%d\"];\n", n.ID, attr, n.Rows))
				for i, c := range n.Children {
					emit(fmt.Sprintf("  n%d -> n%d [label=\"=%d\"];\n", n.ID, c.ID, n.SplitVals[i]))
				}
			} else {
				emit(fmt.Sprintf("  n%d [label=\"%s = %d?\\nn=%d\"];\n", n.ID, attr, n.SplitVal, n.Rows))
				emit(fmt.Sprintf("  n%d -> n%d [label=\"yes\"];\n", n.ID, n.Children[0].ID))
				emit(fmt.Sprintf("  n%d -> n%d [label=\"no\"];\n", n.ID, n.Children[1].ID))
			}
		}
	})
	emit("}\n")
	return werr
}
