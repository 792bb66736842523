package sqlparser

import (
	"fmt"
	"strings"
)

// Statement is any parsed SQL statement.
type Statement interface {
	stmt()
	// String renders the statement back to SQL; parse(s.String()) must
	// yield an equivalent statement (the parser round-trip property).
	String() string
}

// Expr is a scalar or boolean expression.
type Expr interface {
	expr()
	String() string
}

// ColumnRef references a column by name.
type ColumnRef struct{ Name string }

// IntLit is an integer literal.
type IntLit struct{ Val int64 }

// StringLit is a string literal.
type StringLit struct{ Val string }

// BinaryExpr is a binary operation. Op is one of
// "=", "<>", "<", "<=", ">", ">=", "AND", "OR", "+", "-".
type BinaryExpr struct {
	Op   string
	L, R Expr
}

// NotExpr negates a boolean expression.
type NotExpr struct{ E Expr }

// CountStar is COUNT(*), the one aggregate.
type CountStar struct{}

// WhenClause is one WHEN cond THEN result arm of a CASE expression.
type WhenClause struct {
	Cond Expr
	Then Expr
}

// CaseExpr is a searched CASE expression:
// CASE WHEN c1 THEN r1 [WHEN c2 THEN r2 ...] [ELSE e] END.
// A compiled decision tree is one of these, nested per internal node.
type CaseExpr struct {
	Whens []WhenClause
	Else  Expr // nil when absent
}

// ClassifyExpr scores one row with a registered model:
// CLASSIFY(model, a1, a2, ...). Args are the model's attribute columns in
// training order.
type ClassifyExpr struct {
	Model string
	Args  []Expr
}

func (*ColumnRef) expr()    {}
func (*IntLit) expr()       {}
func (*StringLit) expr()    {}
func (*BinaryExpr) expr()   {}
func (*NotExpr) expr()      {}
func (*CountStar) expr()    {}
func (*CaseExpr) expr()     {}
func (*ClassifyExpr) expr() {}

func (e *ColumnRef) String() string { return e.Name }
func (e *IntLit) String() string    { return fmt.Sprintf("%d", e.Val) }
func (e *StringLit) String() string {
	return "'" + strings.ReplaceAll(e.Val, "'", "''") + "'"
}
func (e *BinaryExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}
func (e *NotExpr) String() string   { return fmt.Sprintf("(NOT %s)", e.E) }
func (e *CountStar) String() string { return "COUNT(*)" }
func (e *CaseExpr) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range e.Whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", w.Cond, w.Then)
	}
	if e.Else != nil {
		fmt.Fprintf(&b, " ELSE %s", e.Else)
	}
	b.WriteString(" END")
	return b.String()
}
func (e *ClassifyExpr) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CLASSIFY(%s", e.Model)
	for _, a := range e.Args {
		fmt.Fprintf(&b, ", %s", a)
	}
	b.WriteString(")")
	return b.String()
}

// SelectItem is one projection: an expression with an optional alias, or *.
type SelectItem struct {
	Star  bool
	Expr  Expr
	Alias string
}

func (si SelectItem) String() string {
	if si.Star {
		return "*"
	}
	if si.Alias != "" {
		return fmt.Sprintf("%s AS %s", si.Expr, si.Alias)
	}
	return si.Expr.String()
}

// SelectCore is one SELECT ... FROM table [alias] [WHERE ...] [GROUP BY ...]
// block.
type SelectCore struct {
	Items      []SelectItem
	Table      string
	TableAlias string // "" = none
	Where      Expr   // nil = none
	GroupBy    []Expr
}

// Select is a full query: one or more cores joined by UNION ALL, plus an
// optional LIMIT applied to the combined result.
type Select struct {
	Cores []SelectCore
	Limit int64 // -1 = no limit
}

func (*Select) stmt() {}

func (s *Select) String() string {
	var b strings.Builder
	for i, c := range s.Cores {
		if i > 0 {
			b.WriteString(" UNION ALL ")
		}
		b.WriteString("SELECT ")
		for j, it := range c.Items {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(it.String())
		}
		b.WriteString(" FROM ")
		b.WriteString(c.Table)
		if c.TableAlias != "" {
			b.WriteString(" ")
			b.WriteString(c.TableAlias)
		}
		if c.Where != nil {
			b.WriteString(" WHERE ")
			b.WriteString(c.Where.String())
		}
		if len(c.GroupBy) > 0 {
			b.WriteString(" GROUP BY ")
			for j, g := range c.GroupBy {
				if j > 0 {
					b.WriteString(", ")
				}
				b.WriteString(g.String())
			}
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	return b.String()
}

// ColumnDef is one column in CREATE TABLE. The engine supports INT (4-byte
// categorical codes); VARCHAR is accepted for schema compatibility but
// stored as codes by the callers in this repository.
type ColumnDef struct {
	Name string
	Type string // "INT" or "VARCHAR"
}

// CreateTable is CREATE TABLE name (col type, ...).
type CreateTable struct {
	Name string
	Cols []ColumnDef
}

func (*CreateTable) stmt() {}

func (s *CreateTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CREATE TABLE %s (", s.Name)
	for i, c := range s.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Type)
	}
	b.WriteString(")")
	return b.String()
}

// Insert is INSERT INTO table VALUES (...), (...), ....
type Insert struct {
	Table string
	Rows  [][]Expr
}

func (*Insert) stmt() {}

func (s *Insert) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "INSERT INTO %s VALUES ", s.Table)
	for i, r := range s.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(")
		for j, e := range r {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.String())
		}
		b.WriteString(")")
	}
	return b.String()
}

// DropTable is DROP TABLE name.
type DropTable struct{ Name string }

func (*DropTable) stmt() {}

func (s *DropTable) String() string { return "DROP TABLE " + s.Name }

// ScoreTable is the batch scoring statement: SCORE TABLE t USING model.
// It scores every row of t with the registered model through the engine's
// vectorized scoring operator, returning one predicted class per row in heap
// order.
type ScoreTable struct {
	Table string
	Model string
}

func (*ScoreTable) stmt() {}

func (s *ScoreTable) String() string {
	return fmt.Sprintf("SCORE TABLE %s USING %s", s.Table, s.Model)
}

// BuildTree.Output values.
const (
	OutputStats = "STATS"
	OutputTree  = "TREE"
	OutputTrace = "TRACE"
)

// BuildTree is the tree-building statement:
// BUILD TREE [MAXDEPTH n] [MINROWS n] [MODEL ident] [OUTPUT STATS|TREE|TRACE].
// It grows a decision tree over the served table through the middleware.
// MODEL registers the finished tree in the model catalog, where SCORE TABLE
// and CLASSIFY() find it; OUTPUT picks the result shape. Zero values mean
// "not given": no depth limit, the builder's default MINROWS, no
// registration, OUTPUT STATS.
type BuildTree struct {
	MaxDepth int
	MinRows  int64
	Model    string
	Output   string // "" or one of the Output* constants
}

func (*BuildTree) stmt() {}

func (s *BuildTree) String() string {
	var b strings.Builder
	b.WriteString("BUILD TREE")
	if s.MaxDepth > 0 {
		fmt.Fprintf(&b, " MAXDEPTH %d", s.MaxDepth)
	}
	if s.MinRows > 0 {
		fmt.Fprintf(&b, " MINROWS %d", s.MinRows)
	}
	if s.Model != "" {
		b.WriteString(" MODEL " + s.Model)
	}
	if s.Output != "" {
		b.WriteString(" OUTPUT " + s.Output)
	}
	return b.String()
}

// ShowSessions is SHOW SESSIONS: the serving layer's sessions — those of the
// fleet run in flight, or of the last one — one row each.
type ShowSessions struct{}

func (*ShowSessions) stmt() {}

func (*ShowSessions) String() string { return "SHOW SESSIONS" }
