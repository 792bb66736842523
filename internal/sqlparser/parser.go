package sqlparser

import (
	"math"
	"strconv"
	"strings"
)

// Parse parses a single SQL statement.
func Parse(sql string) (Statement, error) {
	p := &parser{lex: lexer{src: sql}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errf("unexpected trailing input %q", p.tok.text)
	}
	return st, nil
}

type parser struct {
	lex lexer
	tok token
}

func (p *parser) errf(format string, args ...interface{}) error {
	return p.lex.errf(p.tok.pos, format, args...)
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) atKeyword(kw string) bool {
	return p.tok.kind == tokKeyword && p.tok.text == kw
}

func (p *parser) atSymbol(s string) bool {
	return p.tok.kind == tokSymbol && p.tok.text == s
}

// accept consumes the current token if it matches the keyword.
func (p *parser) acceptKeyword(kw string) (bool, error) {
	if p.atKeyword(kw) {
		return true, p.advance()
	}
	return false, nil
}

func (p *parser) expectKeyword(kw string) error {
	if !p.atKeyword(kw) {
		return p.errf("expected %s, found %q", kw, p.tok.text)
	}
	return p.advance()
}

func (p *parser) acceptSymbol(s string) (bool, error) {
	if p.atSymbol(s) {
		return true, p.advance()
	}
	return false, nil
}

func (p *parser) expectSymbol(s string) error {
	if !p.atSymbol(s) {
		return p.errf("expected %q, found %q", s, p.tok.text)
	}
	return p.advance()
}

func (p *parser) expectIdent() (string, error) {
	if p.tok.kind != tokIdent {
		return "", p.errf("expected identifier, found %q", p.tok.text)
	}
	name := p.tok.text
	return name, p.advance()
}

// atWord reports whether the current token is the given non-reserved word.
// The vocabulary of BUILD TREE and SHOW SESSIONS is matched this way, by
// spelling in statement position only, so none of it is taken from the
// identifier space: model, tree, output, stats and sessions stay legal column
// and table names.
func (p *parser) atWord(w string) bool {
	return p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, w)
}

// expectCount consumes an integer literal in [lo, hi].
func (p *parser) expectCount(what string, lo, hi int64) (int64, error) {
	if p.tok.kind != tokInt {
		return 0, p.errf("expected %s count, found %q", what, p.tok.text)
	}
	n, err := strconv.ParseInt(p.tok.text, 10, 64)
	if err != nil || n < lo || n > hi {
		return 0, p.errf("bad %s count %q", what, p.tok.text)
	}
	return n, p.advance()
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.atKeyword("SELECT"):
		return p.selectStmt()
	case p.atKeyword("CREATE"):
		return p.createStmt()
	case p.atKeyword("INSERT"):
		return p.insertStmt()
	case p.atKeyword("DELETE"):
		// Tables are append-only: DELETE stays reserved and is refused by name.
		return nil, p.errf("DELETE is not supported")
	case p.atKeyword("DROP"):
		return p.dropStmt()
	case p.atKeyword("SCORE"):
		return p.scoreStmt()
	case p.atWord("BUILD"):
		return p.buildStmt()
	case p.atWord("SHOW"):
		return p.showStmt()
	}
	return nil, p.errf("expected statement, found %q", p.tok.text)
}

// scoreStmt parses SCORE TABLE t USING model. WORKERS stays reserved and is
// refused by name: every scan is one pass.
func (p *parser) scoreStmt() (Statement, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("USING"); err != nil {
		return nil, err
	}
	model, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if p.atKeyword("WORKERS") {
		return nil, p.errf("WORKERS is not supported")
	}
	return &ScoreTable{Table: table, Model: model}, nil
}

// buildStmt parses BUILD TREE [MAXDEPTH n] [MINROWS n] [MODEL ident]
// [OUTPUT STATS|TREE|TRACE]: options in any order, each at most once. WORKERS
// is refused by name, as in SCORE TABLE.
func (p *parser) buildStmt() (Statement, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if !p.atWord("TREE") {
		return nil, p.errf("expected TREE, found %q", p.tok.text)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	s := &BuildTree{}
	seen := map[string]bool{}
	for p.tok.kind == tokIdent || p.atKeyword("WORKERS") {
		if p.atKeyword("WORKERS") {
			return nil, p.errf("WORKERS is not supported")
		}
		word := p.tok
		opt := strings.ToUpper(word.text)
		if seen[opt] {
			return nil, p.errf("duplicate BUILD TREE option %s", opt)
		}
		seen[opt] = true
		err := p.advance()
		if err != nil {
			return nil, err
		}
		var n int64
		switch opt {
		case "MAXDEPTH":
			n, err = p.expectCount(opt, 0, math.MaxInt32)
			s.MaxDepth = int(n)
		case "MINROWS":
			s.MinRows, err = p.expectCount(opt, 0, math.MaxInt64)
		case "MODEL":
			s.Model, err = p.expectIdent()
		case "OUTPUT":
			s.Output = strings.ToUpper(p.tok.text)
			if p.tok.kind != tokIdent || (s.Output != OutputStats && s.Output != OutputTree && s.Output != OutputTrace) {
				return nil, p.errf("expected STATS, TREE or TRACE, found %q", p.tok.text)
			}
			err = p.advance()
		default:
			return nil, p.lex.errf(word.pos, "unknown BUILD TREE option %q", word.text)
		}
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// showStmt parses SHOW SESSIONS.
func (p *parser) showStmt() (Statement, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if !p.atWord("SESSIONS") {
		return nil, p.errf("expected SESSIONS, found %q", p.tok.text)
	}
	return &ShowSessions{}, p.advance()
}

// selectStmt parses core [UNION ALL core ...] [LIMIT n]. UNION without ALL and
// ORDER BY, like DISTINCT and HAVING in a core, stay reserved and are refused
// by name: the executor neither de-duplicates, sorts nor filters groups.
func (p *parser) selectStmt() (Statement, error) {
	s := &Select{Limit: -1}
	for {
		core, err := p.selectCore()
		if err != nil {
			return nil, err
		}
		s.Cores = append(s.Cores, core)
		if !p.atKeyword("UNION") {
			break
		}
		union := p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		if !p.atKeyword("ALL") {
			return nil, p.lex.errf(union, "UNION without ALL is not supported")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.atKeyword("ORDER") {
		return nil, p.errf("ORDER BY is not supported")
	}
	if ok, err := p.acceptKeyword("LIMIT"); err != nil {
		return nil, err
	} else if ok {
		if p.tok.kind != tokInt {
			return nil, p.errf("expected LIMIT count, found %q", p.tok.text)
		}
		n, err := strconv.ParseInt(p.tok.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad LIMIT %q", p.tok.text)
		}
		s.Limit = n
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (p *parser) selectCore() (SelectCore, error) {
	var c SelectCore
	if err := p.expectKeyword("SELECT"); err != nil {
		return c, err
	}
	if p.atKeyword("DISTINCT") {
		return c, p.errf("DISTINCT is not supported")
	}
	for {
		if ok, err := p.acceptSymbol("*"); err != nil {
			return c, err
		} else if ok {
			c.Items = append(c.Items, SelectItem{Star: true})
		} else {
			e, err := p.expr()
			if err != nil {
				return c, err
			}
			item := SelectItem{Expr: e}
			if ok, err := p.acceptKeyword("AS"); err != nil {
				return c, err
			} else if ok {
				alias, err := p.expectIdent()
				if err != nil {
					return c, err
				}
				item.Alias = alias
			} else if p.tok.kind == tokIdent {
				// Bare alias without AS.
				item.Alias = p.tok.text
				if err := p.advance(); err != nil {
					return c, err
				}
			}
			c.Items = append(c.Items, item)
		}
		if ok, err := p.acceptSymbol(","); err != nil {
			return c, err
		} else if !ok {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return c, err
	}
	tbl, err := p.expectIdent()
	if err != nil {
		return c, err
	}
	c.Table = tbl
	// Optional bare alias.
	if p.tok.kind == tokIdent {
		c.TableAlias = p.tok.text
		if err := p.advance(); err != nil {
			return c, err
		}
	}
	// A core reads one table: JOIN and INNER stay reserved, so neither is
	// taken for an alias, and are refused by name.
	if p.atKeyword("JOIN") || p.atKeyword("INNER") {
		return c, p.errf("JOIN is not supported")
	}
	if ok, err := p.acceptKeyword("WHERE"); err != nil {
		return c, err
	} else if ok {
		w, err := p.expr()
		if err != nil {
			return c, err
		}
		c.Where = w
	}
	if ok, err := p.acceptKeyword("GROUP"); err != nil {
		return c, err
	} else if ok {
		if err := p.expectKeyword("BY"); err != nil {
			return c, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return c, err
			}
			c.GroupBy = append(c.GroupBy, e)
			if ok, err := p.acceptSymbol(","); err != nil {
				return c, err
			} else if !ok {
				break
			}
		}
	}
	if p.atKeyword("HAVING") {
		return c, p.errf("HAVING is not supported")
	}
	return c, nil
}

// Expression grammar, loosest to tightest:
//
//	expr   := and (OR and)*
//	and    := not (AND not)*
//	not    := [NOT] cmp
//	cmp    := add [(=|<>|<|<=|>|>=) add]
//	add    := primary ((+|-) primary)*
//	primary:= INT | STRING | ident | COUNT(*) | CASE ... END | CLASSIFY(...) | (expr)
func (p *parser) expr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("OR") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("AND") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.atKeyword("NOT") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: e}, nil
	}
	return p.cmpExpr()
}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tokSymbol {
		switch p.tok.text {
		case "=", "<>", "<", "<=", ">", ">=":
			op := p.tok.text
			if err := p.advance(); err != nil {
				return nil, err
			}
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.primary()
	if err != nil {
		return nil, err
	}
	for p.atSymbol("+") || p.atSymbol("-") {
		op := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.primary()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) primary() (Expr, error) {
	switch {
	case p.tok.kind == tokInt:
		v, err := strconv.ParseInt(p.tok.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer literal %q", p.tok.text)
		}
		return &IntLit{Val: v}, p.advance()

	case p.tok.kind == tokString:
		v := p.tok.text
		return &StringLit{Val: v}, p.advance()

	case p.tok.kind == tokSymbol && p.tok.text == "-":
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokInt {
			return nil, p.errf("expected integer after unary minus")
		}
		v, err := strconv.ParseInt(p.tok.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer literal %q", p.tok.text)
		}
		return &IntLit{Val: -v}, p.advance()

	case p.atKeyword("COUNT"):
		count := p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		if !p.atSymbol("*") {
			return nil, p.lex.errf(count, "COUNT(expr) is not supported")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &CountStar{}, p.expectSymbol(")")

	case p.atKeyword("SUM"), p.atKeyword("MIN"), p.atKeyword("MAX"), p.atKeyword("AVG"):
		return nil, p.errf("%s is not supported", p.tok.text)

	case p.atKeyword("CASE"):
		return p.caseExpr()

	case p.atKeyword("CLASSIFY"):
		return p.classifyExpr()

	case p.tok.kind == tokIdent:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		// Qualified reference: alias.column.
		if p.atSymbol(".") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Name: name + "." + col}, nil
		}
		return &ColumnRef{Name: name}, nil

	case p.atSymbol("("):
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, p.errf("expected expression, found %q", p.tok.text)
}

// caseExpr parses a searched CASE:
// CASE WHEN cond THEN result [WHEN ...] [ELSE result] END.
func (p *parser) caseExpr() (Expr, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	e := &CaseExpr{}
	for {
		ok, err := p.acceptKeyword("WHEN")
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.expr()
		if err != nil {
			return nil, err
		}
		e.Whens = append(e.Whens, WhenClause{Cond: cond, Then: then})
	}
	if len(e.Whens) == 0 {
		return nil, p.errf("CASE needs at least one WHEN arm")
	}
	if ok, err := p.acceptKeyword("ELSE"); err != nil {
		return nil, err
	} else if ok {
		if e.Else, err = p.expr(); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return e, nil
}

// classifyExpr parses CLASSIFY(model, arg1, arg2, ...).
func (p *parser) classifyExpr() (Expr, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	model, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	e := &ClassifyExpr{Model: model}
	for {
		ok, err := p.acceptSymbol(",")
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		arg, err := p.expr()
		if err != nil {
			return nil, err
		}
		e.Args = append(e.Args, arg)
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return e, nil
}

func (p *parser) createStmt() (Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	if ok, err := p.acceptKeyword("TABLE"); err != nil {
		return nil, err
	} else if ok {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		st := &CreateTable{Name: name}
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			var typ string
			switch {
			case p.atKeyword("INT"):
				typ = "INT"
			case p.atKeyword("VARCHAR"):
				typ = "VARCHAR"
			default:
				return nil, p.errf("expected column type INT or VARCHAR, found %q", p.tok.text)
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			// Optional (n) length on VARCHAR.
			if ok, err := p.acceptSymbol("("); err != nil {
				return nil, err
			} else if ok {
				if p.tok.kind != tokInt {
					return nil, p.errf("expected length, found %q", p.tok.text)
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
			}
			st.Cols = append(st.Cols, ColumnDef{Name: col, Type: typ})
			if ok, err := p.acceptSymbol(","); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return st, nil
	}
	if p.atKeyword("INDEX") {
		return nil, p.errf("CREATE INDEX is not supported")
	}
	return nil, p.errf("expected TABLE, found %q", p.tok.text)
}

func (p *parser) insertStmt() (Statement, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	st := &Insert{Table: name}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if ok, err := p.acceptSymbol(","); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if ok, err := p.acceptSymbol(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	return st, nil
}

func (p *parser) dropStmt() (Statement, error) {
	if err := p.expectKeyword("DROP"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &DropTable{Name: name}, nil
}
