package data

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func testSchema() *Schema {
	return &Schema{
		Attrs: []Attribute{{Name: "color", Card: 3}, {Name: "size", Card: 4}},
		Class: Attribute{Name: "label", Card: 2},
	}
}

func TestSchemaBasics(t *testing.T) {
	s := testSchema()
	if s.NumAttrs() != 2 || s.NumCols() != 3 || s.ClassIndex() != 2 {
		t.Fatalf("schema shape wrong: %+v", s)
	}
	if s.RowBytes() != 12 {
		t.Errorf("RowBytes = %d, want 12", s.RowBytes())
	}
	if s.ColName(0) != "color" || s.ColName(2) != "label" {
		t.Error("ColName wrong")
	}
	if s.ColCard(1) != 4 || s.ColCard(2) != 2 {
		t.Error("ColCard wrong")
	}
	if got := s.String(); got != "color(3), size(4), label(2)" {
		t.Errorf("String = %q", got)
	}
}

func TestNewSchema(t *testing.T) {
	s := NewSchema(3, 4, 5)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.NumAttrs() != 3 || s.Attrs[2].Name != "A3" || s.Attrs[0].Card != 4 || s.Class.Card != 5 {
		t.Errorf("NewSchema wrong: %+v", s)
	}
}

func TestSchemaValidateErrors(t *testing.T) {
	cases := map[string]*Schema{
		"no attrs":    {Class: Attribute{Name: "c", Card: 2}},
		"zero card":   {Attrs: []Attribute{{Name: "a", Card: 0}}, Class: Attribute{Name: "c", Card: 2}},
		"dup name":    {Attrs: []Attribute{{Name: "a", Card: 2}, {Name: "a", Card: 2}}, Class: Attribute{Name: "c", Card: 2}},
		"empty name":  {Attrs: []Attribute{{Name: "", Card: 2}}, Class: Attribute{Name: "c", Card: 2}},
		"class clash": {Attrs: []Attribute{{Name: "c", Card: 2}}, Class: Attribute{Name: "c", Card: 2}},
		"zero class":  {Attrs: []Attribute{{Name: "a", Card: 2}}, Class: Attribute{Name: "c", Card: 0}},
	}
	for name, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid schema", name)
		}
	}
}

func TestSchemaClone(t *testing.T) {
	s := testSchema()
	c := s.Clone()
	c.Attrs[0].Name = "mutated"
	if s.Attrs[0].Name != "color" {
		t.Error("Clone aliases the original")
	}
}

func TestRowAccessors(t *testing.T) {
	r := Row{1, 2, 0}
	if r.Class() != 0 || r[1] != 2 {
		t.Error("accessors wrong")
	}
	c := r.Clone()
	c[0] = 9
	if r[0] != 1 {
		t.Error("Clone aliases")
	}
}

func TestDatasetValidate(t *testing.T) {
	ds := NewDataset(testSchema())
	ds.Append(Row{0, 1, 1}, Row{2, 3, 0})
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	ds.Append(Row{3, 0, 0}) // color out of domain
	if err := ds.Validate(); err == nil {
		t.Error("accepted out-of-domain value")
	}
	ds.Rows = ds.Rows[:2]
	ds.Append(Row{0, 0}) // wrong arity
	if err := ds.Validate(); err == nil {
		t.Error("accepted short row")
	}
}

func TestDatasetBytes(t *testing.T) {
	ds := NewDataset(testSchema())
	ds.Append(Row{0, 0, 1}, Row{1, 1, 1}, Row{2, 2, 0})
	if ds.Bytes() != 36 {
		t.Errorf("Bytes = %d, want 36", ds.Bytes())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := testSchema()
	ds := NewDataset(s)
	for i := 0; i < 50; i++ {
		ds.Append(Row{
			Value(rng.Intn(3)), Value(rng.Intn(4)), Value(rng.Intn(2)),
		})
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != ds.N() {
		t.Fatalf("rows = %d, want %d", back.N(), ds.N())
	}
	for i := range ds.Rows {
		if !reflect.DeepEqual(back.Rows[i], ds.Rows[i]) {
			t.Fatalf("row %d = %v, want %v", i, back.Rows[i], ds.Rows[i])
		}
	}
	if back.Schema.Class.Name != "label" {
		t.Errorf("class name = %q", back.Schema.Class.Name)
	}
}

func TestReadCSVStringDictionary(t *testing.T) {
	csv := "color,size,label\nred,small,yes\nblue,big,no\nred,big,yes\n"
	ds, err := ReadCSV(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 3 {
		t.Fatalf("rows = %d", ds.N())
	}
	// Dictionary codes follow first appearance: red=0, blue=1.
	if ds.Rows[0][0] != 0 || ds.Rows[1][0] != 1 || ds.Rows[2][0] != 0 {
		t.Errorf("color codes = %v %v %v", ds.Rows[0][0], ds.Rows[1][0], ds.Rows[2][0])
	}
	if ds.Schema.Attrs[0].Card != 2 || ds.Schema.Class.Card != 2 {
		t.Errorf("cards = %+v", ds.Schema)
	}
}

func TestReadCSVErrors(t *testing.T) {
	for name, in := range map[string]string{
		"one column": "only\n1\n",
		"ragged":     "a,b\n1\n",
	} {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}
