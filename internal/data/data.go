// Package data defines the categorical data model shared by the SQL engine,
// the classification middleware, the classifiers and the data generators.
//
// Following the paper (§1: "we assume all attributes are categorical or have
// been discretized"), every attribute and the class variable take values from
// a small finite domain encoded as consecutive integer codes 0..Card-1. A row
// is a fixed-width vector of such codes with the class value in the last
// position.
package data

import (
	"fmt"
	"strings"
)

// Value is one categorical value code. Valid values are 0..Card-1 for the
// attribute's cardinality Card. Missing denotes an absent value.
type Value int32

// Missing is the sentinel for an absent value. The generators in this
// repository never produce it, but the engine stores it like any value.
const Missing Value = -1

// Attribute describes one categorical column.
type Attribute struct {
	Name string
	Card int // number of distinct values, >= 1
}

// Schema describes a classification table: m predictor attributes A1..Am and
// a distinguished class column C (always stored last in a Row).
type Schema struct {
	Attrs []Attribute
	Class Attribute
}

// NewSchema builds a schema with n synthetic attributes named A1..An of the
// given uniform cardinality and a class of classCard values.
func NewSchema(n, card, classCard int) *Schema {
	s := &Schema{Class: Attribute{Name: "class", Card: classCard}}
	s.Attrs = make([]Attribute, n)
	for i := range s.Attrs {
		s.Attrs[i] = Attribute{Name: fmt.Sprintf("A%d", i+1), Card: card}
	}
	return s
}

// NumAttrs returns the number of predictor attributes m.
func (s *Schema) NumAttrs() int { return len(s.Attrs) }

// NumCols returns the total number of columns (attributes + class).
func (s *Schema) NumCols() int { return len(s.Attrs) + 1 }

// ClassIndex returns the column index of the class value within a Row.
func (s *Schema) ClassIndex() int { return len(s.Attrs) }

// RowBytes returns the encoded size of one row in bytes.
func (s *Schema) RowBytes() int { return 4 * s.NumCols() }

// ColName returns the name of column i (an attribute or the class).
func (s *Schema) ColName(i int) string {
	if i == s.ClassIndex() {
		return s.Class.Name
	}
	return s.Attrs[i].Name
}

// ColCard returns the cardinality of column i (an attribute or the class).
func (s *Schema) ColCard(i int) int {
	if i == s.ClassIndex() {
		return s.Class.Card
	}
	return s.Attrs[i].Card
}

// ColCards returns the cardinality of every column: ColCard(i) for each row
// index i, the class last.
func (s *Schema) ColCards() []int {
	cards := make([]int, s.NumCols())
	for i := range cards {
		cards[i] = s.ColCard(i)
	}
	return cards
}

// Validate checks structural invariants of the schema.
func (s *Schema) Validate() error {
	if len(s.Attrs) == 0 {
		return fmt.Errorf("data: schema has no attributes")
	}
	if s.Class.Card < 1 {
		return fmt.Errorf("data: class cardinality %d < 1", s.Class.Card)
	}
	seen := make(map[string]bool, len(s.Attrs)+1)
	for _, a := range s.Attrs {
		if a.Card < 1 {
			return fmt.Errorf("data: attribute %q cardinality %d < 1", a.Name, a.Card)
		}
		if a.Name == "" || seen[a.Name] {
			return fmt.Errorf("data: duplicate or empty attribute name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if s.Class.Name == "" || seen[s.Class.Name] {
		return fmt.Errorf("data: duplicate or empty class name %q", s.Class.Name)
	}
	return nil
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	c := &Schema{Class: s.Class}
	c.Attrs = append([]Attribute(nil), s.Attrs...)
	return c
}

// String renders the schema as "A1(4), A2(4), ..., class(10)".
func (s *Schema) String() string {
	var b strings.Builder
	for i, a := range s.Attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s(%d)", a.Name, a.Card)
	}
	fmt.Fprintf(&b, ", %s(%d)", s.Class.Name, s.Class.Card)
	return b.String()
}

// Row is one record: attribute values followed by the class value.
type Row []Value

// Class returns the class value (the last element).
func (r Row) Class() Value { return r[len(r)-1] }

// Clone returns a copy of the row.
func (r Row) Clone() Row { return append(Row(nil), r...) }

// Dataset is an in-memory table of rows with a schema. It is the client-side
// and generator-side representation; the server stores its rows in row groups.
type Dataset struct {
	Schema *Schema
	Rows   []Row
}

// NewDataset returns an empty dataset over the schema.
func NewDataset(s *Schema) *Dataset { return &Dataset{Schema: s} }

// N returns the number of rows.
func (d *Dataset) N() int { return len(d.Rows) }

// Append adds rows to the dataset.
func (d *Dataset) Append(rows ...Row) { d.Rows = append(d.Rows, rows...) }

// Bytes returns the total encoded size of the dataset in bytes, the
// "data set size" quantity the paper's x-axes use.
func (d *Dataset) Bytes() int64 {
	return int64(d.Schema.RowBytes()) * int64(len(d.Rows))
}

// Validate checks that all values are within their column domains.
func (d *Dataset) Validate() error {
	if err := d.Schema.Validate(); err != nil {
		return err
	}
	ncols := d.Schema.NumCols()
	for ri, r := range d.Rows {
		if len(r) != ncols {
			return fmt.Errorf("data: row %d has %d columns, want %d", ri, len(r), ncols)
		}
		for ci, v := range r {
			if v == Missing {
				continue
			}
			if v < 0 || int(v) >= d.Schema.ColCard(ci) {
				return fmt.Errorf("data: row %d col %s value %d out of domain [0,%d)",
					ri, d.Schema.ColName(ci), v, d.Schema.ColCard(ci))
			}
		}
	}
	return nil
}
