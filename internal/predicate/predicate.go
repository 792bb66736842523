// Package predicate implements the node predicates and filter expressions of
// §4.3.1 of the paper.
//
// Every decision-tree node n is associated with a conjunction of simple
// conditions on the edges of the path from the root to n ("A1=a2 AND A2=a").
// When the middleware schedules a set of active nodes {n1..nk} for a single
// server scan, it generates the filter expression (S1 OR ... OR Sk) from the
// nodes' path predicates and pushes it into the server's SELECT so that
// "each record fetched from the server to the middleware contributes to one
// or more of the counts".
package predicate

import (
	"fmt"
	"strings"

	"repro/internal/data"
)

// Op is a comparison operator on a categorical attribute.
type Op int

// Supported operators. The paper's partitions are of the form "A = v" or
// "A = other" (§4.2.1), i.e. equality and its negation.
const (
	Eq Op = iota // attribute equals value
	Ne           // attribute differs from value
)

// String returns the SQL spelling of the operator.
func (o Op) String() string {
	switch o {
	case Eq:
		return "="
	case Ne:
		return "<>"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Cond is one simple condition "Attr op Val" on attribute index Attr.
type Cond struct {
	Attr int
	Op   Op
	Val  data.Value
}

// Eval reports whether the row satisfies the condition.
func (c Cond) Eval(r data.Row) bool {
	if c.Op == Eq {
		return r[c.Attr] == c.Val
	}
	return r[c.Attr] != c.Val
}

// Excludes reports whether c and d cannot both hold: they test the same
// attribute, and either both ask for equality with different values or one
// asks for a value the other rules out.
func (c Cond) Excludes(d Cond) bool {
	if c.Attr != d.Attr || c.Op == Ne && d.Op == Ne {
		return false
	}
	return (c.Op == d.Op) != (c.Val == d.Val)
}

// SQL renders the condition against the schema's column names.
func (c Cond) SQL(s *data.Schema) string {
	return fmt.Sprintf("%s %s %d", s.Attrs[c.Attr].Name, c.Op, c.Val)
}

// Conj is a conjunction of simple conditions: one tree node's path
// predicate. The empty (nil) conjunction is true (the root node).
type Conj []Cond

// Eval reports whether the row satisfies every condition.
func (cj Conj) Eval(r data.Row) bool {
	for _, c := range cj {
		if !c.Eval(r) {
			return false
		}
	}
	return true
}

// And returns a new conjunction extended with c. The receiver is not
// modified; the result does not alias it.
func (cj Conj) And(c Cond) Conj {
	out := make(Conj, 0, len(cj)+1)
	out = append(out, cj...)
	return append(out, c)
}

// Normalize returns an equivalent conjunction with redundant conditions
// removed: a "A = v" condition subsumes any "A <> w" (w != v) on the same
// attribute, and duplicate conditions collapse. It returns ok=false if the
// conjunction is unsatisfiable (e.g. A = 1 AND A = 2, or A = 1 AND A <> 1).
func (cj Conj) Normalize() (out Conj, ok bool) {
	eq := map[int]data.Value{}
	ne := map[int]map[data.Value]bool{}
	for _, c := range cj {
		switch c.Op {
		case Eq:
			if v, dup := eq[c.Attr]; dup && v != c.Val {
				return nil, false
			}
			eq[c.Attr] = c.Val
		case Ne:
			if ne[c.Attr] == nil {
				ne[c.Attr] = map[data.Value]bool{}
			}
			ne[c.Attr][c.Val] = true
		}
	}
	//repolint:ordered existence check; any iteration order reaches the same verdict
	for a, v := range eq {
		if ne[a][v] {
			return nil, false
		}
	}
	// Rebuild in first-occurrence order for determinism.
	seen := map[Cond]bool{}
	for _, c := range cj {
		if c.Op == Ne {
			if _, fixed := eq[c.Attr]; fixed {
				continue // subsumed by equality on the same attribute
			}
		}
		if seen[c] {
			continue
		}
		seen[c] = true
		out = append(out, c)
	}
	return out, true
}

// SQL renders the conjunction, or "1 = 1" for the empty conjunction.
func (cj Conj) SQL(s *data.Schema) string {
	if len(cj) == 0 {
		return "1 = 1"
	}
	parts := make([]string, len(cj))
	for i, c := range cj {
		parts[i] = c.SQL(s)
	}
	return strings.Join(parts, " AND ")
}

// String renders the conjunction with positional attribute names.
func (cj Conj) String() string {
	if len(cj) == 0 {
		return "true"
	}
	parts := make([]string, len(cj))
	for i, c := range cj {
		parts[i] = fmt.Sprintf("A%d %s %d", c.Attr+1, c.Op, c.Val)
	}
	return strings.Join(parts, " AND ")
}

// Filter is a disjunction of conjunctions: the filter expression
// (S1 OR ... OR Sk) generated for a batch of scheduled nodes. A nil or empty
// Filter matches every row only if MatchAll was used; the zero Filter
// matches nothing.
type Filter struct {
	all   bool
	conjs []Conj
	trie  *Trie // over conjs; nil for match-all and empty filters
}

// MatchAll returns the filter that accepts every row (scanning for the root
// node, whose path predicate is empty).
func MatchAll() Filter { return Filter{all: true} }

// Or builds a filter from the given node predicates: Trie.Filter over a
// private copy of them.
func Or(conjs ...Conj) Filter {
	return NewTrie(append([]Conj(nil), conjs...)).Filter()
}

// All reports whether the filter accepts every row.
func (f Filter) All() bool { return f.all }

// Conjs returns the filter's disjuncts (nil for match-all and empty
// filters). Callers must not modify the returned slice; it is exposed so
// cardinality estimators (engine partition hints) can walk the disjunction
// without re-parsing the SQL rendering.
func (f Filter) Conjs() []Conj { return f.conjs }

// Trie returns the prefix trie over the filter's disjuncts, the one the filter
// was made from (nil for match-all and empty filters): the form the engine
// compiles into a row group's code space.
func (f Filter) Trie() *Trie { return f.trie }

// Empty reports whether the filter accepts no rows.
func (f Filter) Empty() bool { return !f.all && len(f.conjs) == 0 }

// Eval reports whether the row satisfies the filter: one walk of the
// disjuncts' trie, stopped at the first disjunct that holds.
func (f Filter) Eval(r data.Row) bool { return f.all || f.trie.Any(r) }

// String renders the filter for diagnostics.
func (f Filter) String() string {
	if f.all {
		return "true"
	}
	if len(f.conjs) == 0 {
		return "false"
	}
	parts := make([]string, len(f.conjs))
	for i, cj := range f.conjs {
		parts[i] = "(" + cj.String() + ")"
	}
	return strings.Join(parts, " OR ")
}
