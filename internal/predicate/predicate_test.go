package predicate

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/data"
)

func TestCondEval(t *testing.T) {
	r := data.Row{2, 0, 1}
	cases := []struct {
		c    Cond
		want bool
	}{
		{Cond{Attr: 0, Op: Eq, Val: 2}, true},
		{Cond{Attr: 0, Op: Eq, Val: 1}, false},
		{Cond{Attr: 1, Op: Ne, Val: 2}, true},
		{Cond{Attr: 1, Op: Ne, Val: 0}, false},
	}
	for _, c := range cases {
		if got := c.c.Eval(r); got != c.want {
			t.Errorf("%v.Eval(%v) = %v", c.c, r, got)
		}
	}
}

func TestConjEvalAndAnd(t *testing.T) {
	r := data.Row{2, 0, 1}
	var cj Conj
	if !cj.Eval(r) {
		t.Error("empty conjunction must be true")
	}
	cj2 := cj.And(Cond{Attr: 0, Op: Eq, Val: 2})
	cj3 := cj2.And(Cond{Attr: 1, Op: Ne, Val: 0})
	if !cj2.Eval(r) || cj3.Eval(r) {
		t.Error("conjunction semantics wrong")
	}
	// And must not alias: extending cj2 twice gives independent conjs.
	a := cj2.And(Cond{Attr: 2, Op: Eq, Val: 1})
	b := cj2.And(Cond{Attr: 2, Op: Eq, Val: 0})
	if a[1] == b[1] {
		t.Error("And aliased the parent slice")
	}
	if len(cj2) != 1 {
		t.Error("And mutated the receiver")
	}
}

func TestNormalize(t *testing.T) {
	eq := func(a int, v data.Value) Cond { return Cond{Attr: a, Op: Eq, Val: v} }
	ne := func(a int, v data.Value) Cond { return Cond{Attr: a, Op: Ne, Val: v} }

	// Equality subsumes inequality on the same attribute.
	out, ok := Conj{ne(0, 1), eq(0, 2), ne(0, 3)}.Normalize()
	if !ok || !reflect.DeepEqual(out, Conj{eq(0, 2)}) {
		t.Errorf("subsumption: %v %v", out, ok)
	}
	// Contradictions.
	if _, ok := (Conj{eq(0, 1), eq(0, 2)}).Normalize(); ok {
		t.Error("A=1 AND A=2 accepted")
	}
	if _, ok := (Conj{eq(0, 1), ne(0, 1)}).Normalize(); ok {
		t.Error("A=1 AND A<>1 accepted")
	}
	// Duplicates collapse.
	out, ok = Conj{ne(1, 0), ne(1, 0), ne(1, 2)}.Normalize()
	if !ok || len(out) != 2 {
		t.Errorf("dedupe: %v", out)
	}
	// Normalization preserves semantics.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		var cj Conj
		for i := 0; i < rng.Intn(5); i++ {
			cj = append(cj, Cond{Attr: rng.Intn(3), Op: Op(rng.Intn(2)), Val: data.Value(rng.Intn(3))})
		}
		norm, ok := cj.Normalize()
		for rt := 0; rt < 20; rt++ {
			r := data.Row{data.Value(rng.Intn(3)), data.Value(rng.Intn(3)), data.Value(rng.Intn(3))}
			if !ok {
				if cj.Eval(r) {
					t.Fatalf("unsatisfiable %v matched %v", cj, r)
				}
				continue
			}
			if cj.Eval(r) != norm.Eval(r) {
				t.Fatalf("normalize changed semantics: %v vs %v on %v", cj, norm, r)
			}
		}
	}
}

func TestSQLRendering(t *testing.T) {
	s := data.NewSchema(3, 4, 2)
	cj := Conj{{Attr: 0, Op: Eq, Val: 2}, {Attr: 2, Op: Ne, Val: 1}}
	if got := cj.SQL(s); got != "A1 = 2 AND A3 <> 1" {
		t.Errorf("Conj.SQL = %q", got)
	}
	if got := (Conj{}).SQL(s); got != "1 = 1" {
		t.Errorf("empty Conj.SQL = %q", got)
	}
}

func TestFilterSemantics(t *testing.T) {
	r := data.Row{1, 2, 0}
	c1 := Conj{{Attr: 0, Op: Eq, Val: 1}}
	c2 := Conj{{Attr: 1, Op: Eq, Val: 9}}
	if f := Or(c2); f.Eval(r) {
		t.Error("non-matching filter matched")
	}
	if f := Or(c2, c1); !f.Eval(r) {
		t.Error("matching filter missed")
	}
	if !MatchAll().Eval(r) || !MatchAll().All() {
		t.Error("MatchAll")
	}
	var zero Filter
	if zero.Eval(r) || !zero.Empty() {
		t.Error("zero filter must match nothing")
	}
	// An empty conjunction (the root) degenerates the filter to match-all.
	if f := Or(c2, Conj{}); !f.All() {
		t.Error("root conjunction should force match-all")
	}
}

func TestStrings(t *testing.T) {
	cj := Conj{{Attr: 0, Op: Eq, Val: 2}}
	if cj.String() == "" || (Conj{}).String() != "true" {
		t.Error("Conj.String")
	}
	if MatchAll().String() != "true" || (Filter{}).String() != "false" {
		t.Error("Filter.String")
	}
	if Or(cj).String() == "" {
		t.Error("Or.String")
	}
	if Eq.String() != "=" || Ne.String() != "<>" {
		t.Error("Op.String")
	}
}

// TestFilterEqualsAnyConj: a filter matches exactly when at least one of its
// conjunctions does.
func TestFilterEqualsAnyConj(t *testing.T) {
	f := func(rows [][3]uint8, conds [][3]uint8) bool {
		var conjs []Conj
		for i, c := range conds {
			cj := Conj{{Attr: int(c[0] % 3), Op: Op(c[1] % 2), Val: data.Value(c[2] % 4)}}
			if i%2 == 1 && len(conds) > 1 {
				prev := conds[i-1]
				cj = cj.And(Cond{Attr: int(prev[0] % 3), Op: Op(prev[1] % 2), Val: data.Value(prev[2] % 4)})
			}
			conjs = append(conjs, cj)
		}
		filter := Or(conjs...)
		for _, rw := range rows {
			r := data.Row{data.Value(rw[0] % 4), data.Value(rw[1] % 4), data.Value(rw[2] % 4)}
			want := false
			for _, cj := range conjs {
				if cj.Eval(r) {
					want = true
					break
				}
			}
			if len(conjs) == 0 {
				want = false
			}
			if filter.Eval(r) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCondExcludes: two conditions exclude each other exactly when no value of
// their attribute satisfies both, over every pair of Eq/Ne conditions on a
// small domain; conditions on different attributes never do.
func TestCondExcludes(t *testing.T) {
	var conds []Cond
	for a := 0; a < 2; a++ {
		for v := data.Value(0); v < 3; v++ {
			conds = append(conds, Cond{Attr: a, Op: Eq, Val: v}, Cond{Attr: a, Op: Ne, Val: v})
		}
	}
	for _, c := range conds {
		for _, d := range conds {
			both := false
			for x := data.Value(0); x < 4 && c.Attr == d.Attr; x++ {
				r := data.Row{x, x}
				both = both || c.Eval(r) && d.Eval(r)
			}
			if want := c.Attr == d.Attr && !both; c.Excludes(d) != want {
				t.Errorf("%v excludes %v = %v, want %v", c, d, c.Excludes(d), want)
			}
		}
	}
}
