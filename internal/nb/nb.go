// Package nb implements a Naive Bayes classifier as a second client of the
// classification middleware, demonstrating the paper's claim (§1) that "other
// classification algorithms such as Naive Bayes can also plug in to this
// architecture": Naive Bayes is driven entirely by the same sufficient
// statistics — the co-occurrence counts of (attribute, value, class) — and
// needs exactly one counts table, the root's, obtained in a single scan.
// Conditional probabilities use add-one (Laplace) smoothing.
package nb

import (
	"fmt"
	"math"

	"repro/internal/cc"
	"repro/internal/data"
	"repro/internal/mw"
)

// Model is a trained Naive Bayes classifier.
type Model struct {
	Schema *data.Schema
	// Priors[c] is the class prior probability.
	Priors []float64
	// CondLog[a][v][c] is log P(A_a = v | C = c) with add-one smoothing.
	CondLog [][][]float64
	// Rows is the number of training rows.
	Rows int64
}

// Train builds a model through the middleware: one request for the root
// counts table, then pure arithmetic — done before the root is closed, since
// closing it hands the table back to the middleware.
func Train(m *mw.Middleware) (*Model, error) {
	schema := m.Schema()
	attrs := make([]int, schema.NumAttrs())
	for i := range attrs {
		attrs[i] = i
	}
	var est int64
	for _, a := range schema.Attrs {
		est += int64(a.Card)
	}
	est = est*int64(schema.Class.Card) + int64(schema.Class.Card)
	if err := m.Enqueue(&mw.Request{
		NodeID: 0, ParentID: -1, Attrs: attrs, Rows: m.DataRows(), EstCC: est,
	}); err != nil {
		return nil, err
	}
	var model *Model
	for m.Pending() > 0 {
		results, err := m.Step()
		if err != nil {
			return nil, err
		}
		for _, res := range results {
			if res.Req.NodeID == 0 {
				if model, err = FromCounts(schema, res.CC); err != nil {
					return nil, err
				}
			}
			m.CloseNode(res.Req.NodeID)
		}
	}
	if model == nil {
		return nil, fmt.Errorf("nb: middleware returned no counts table")
	}
	return model, nil
}

// FromCounts trains a model from a root counts table (which must include the
// class pseudo-attribute the middleware always counts).
func FromCounts(schema *data.Schema, t *cc.Table) (*Model, error) {
	classCard := schema.Class.Card
	classIdx := schema.ClassIndex()

	classCounts := make([]int64, classCard)
	var total int64
	for c := 0; c < classCard; c++ {
		classCounts[c] = t.Count(classIdx, data.Value(c), data.Value(c))
		total += classCounts[c]
	}
	if total == 0 {
		return nil, fmt.Errorf("nb: empty counts table")
	}

	m := &Model{Schema: schema, Rows: total}
	m.Priors = make([]float64, classCard)
	for c := 0; c < classCard; c++ {
		m.Priors[c] = float64(classCounts[c]) / float64(total)
	}

	m.CondLog = make([][][]float64, schema.NumAttrs())
	for a := 0; a < schema.NumAttrs(); a++ {
		card := schema.Attrs[a].Card
		m.CondLog[a] = make([][]float64, card)
		for v := 0; v < card; v++ {
			m.CondLog[a][v] = make([]float64, classCard)
			for c := 0; c < classCard; c++ {
				n := t.Count(a, data.Value(v), data.Value(c))
				p := (float64(n) + 1) / (float64(classCounts[c]) + float64(card))
				m.CondLog[a][v][c] = math.Log(p)
			}
		}
	}
	return m, nil
}

// LogPosteriors returns the unnormalized log posterior per class for a row.
func (m *Model) LogPosteriors(row data.Row) []float64 {
	classCard := m.Schema.Class.Card
	out := make([]float64, classCard)
	for c := 0; c < classCard; c++ {
		lp := math.Inf(-1)
		if m.Priors[c] > 0 {
			lp = math.Log(m.Priors[c])
			for a := 0; a < m.Schema.NumAttrs(); a++ {
				v := int(row[a])
				if v >= 0 && v < len(m.CondLog[a]) {
					lp += m.CondLog[a][v][c]
				}
			}
		}
		out[c] = lp
	}
	return out
}

// Predict returns the maximum-a-posteriori class for a row.
func (m *Model) Predict(row data.Row) data.Value {
	lps := m.LogPosteriors(row)
	best := 0
	for c := 1; c < len(lps); c++ {
		if lps[c] > lps[best] {
			best = c
		}
	}
	return data.Value(best)
}

// Accuracy returns the fraction of rows whose class the model predicts
// correctly.
func (m *Model) Accuracy(ds *data.Dataset) float64 {
	if ds.N() == 0 {
		return 0
	}
	correct := 0
	for _, r := range ds.Rows {
		if m.Predict(r) == r.Class() {
			correct++
		}
	}
	return float64(correct) / float64(ds.N())
}
