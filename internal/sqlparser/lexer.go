// Package sqlparser is the one grammar every surface speaks — engine, wire
// daemon, sqlsh. It covers the SQL its callers send to the embedded engine:
// single-table SELECT cores with WHERE and GROUP BY, joined by UNION ALL, with
// an optional LIMIT; COUNT(*) as the one aggregate, searched CASE, CLASSIFY()
// and integer arithmetic; CREATE TABLE; INSERT; DROP TABLE — the query shapes
// of §2.3 of the paper (the UNION-of-GROUP-BY counts query) plus the DDL the
// experiments use — and the two classification statements, SCORE TABLE t
// USING m and BUILD TREE [MAXDEPTH n] [MINROWS n] [MODEL ident]
// [OUTPUT STATS|TREE|TRACE]. CREATE INDEX, JOIN, DELETE, HAVING, DISTINCT,
// ORDER BY, UNION without ALL, SUM, MIN, MAX, AVG, COUNT(expr) and WORKERS
// are reserved and refused by name: the engine has none of them.
package sqlparser

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokString
	tokSymbol // punctuation and operators: ( ) , * = <> < <= > >= + -
)

type token struct {
	kind tokenKind
	text string // keywords are upper-cased; identifiers keep original case
	pos  int    // byte offset in the input, for error messages
}

// Error is a parse or lex error with position context.
type Error struct {
	Pos int
	Msg string
	SQL string
}

func (e *Error) Error() string {
	line, col := 1, 1
	for i := 0; i < e.Pos && i < len(e.SQL); i++ {
		if e.SQL[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Sprintf("sql: %s at line %d col %d", e.Msg, line, col)
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"ORDER": true, "UNION": true, "ALL": true, "AS": true, "AND": true,
	"OR": true, "NOT": true, "COUNT": true, "SUM": true, "MIN": true,
	"MAX": true, "CREATE": true, "TABLE": true, "INDEX": true, "ON": true,
	"INSERT": true, "INTO": true, "VALUES": true, "DROP": true, "INT": true,
	"ASC": true, "DESC": true, "DELETE": true, "DISTINCT": true,
	"VARCHAR": true, "NULL": true, "HAVING": true, "LIMIT": true, "AVG": true,
	"JOIN": true, "INNER": true, "CASE": true, "WHEN": true, "THEN": true,
	"ELSE": true, "END": true, "CLASSIFY": true, "SCORE": true,
	"USING": true, "WORKERS": true,
}

type lexer struct {
	src string
	pos int
}

func (l *lexer) errf(pos int, format string, args ...interface{}) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...), SQL: l.src}
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			// Line comment.
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, pos: l.pos}, nil

scan:
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(rune(c)):
		for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
			l.pos++
		}
		text := l.src[start:l.pos]
		if up := strings.ToUpper(text); keywords[up] {
			return token{kind: tokKeyword, text: up, pos: start}, nil
		}
		return token{kind: tokIdent, text: text, pos: start}, nil

	case c >= '0' && c <= '9':
		for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			l.pos++
		}
		return token{kind: tokInt, text: l.src[start:l.pos], pos: start}, nil

	case c == '\'':
		l.pos++
		var b strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, l.errf(start, "unterminated string literal")
			}
			if l.src[l.pos] == '\'' {
				// Doubled quote is an escaped quote.
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					b.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				break
			}
			b.WriteByte(l.src[l.pos])
			l.pos++
		}
		return token{kind: tokString, text: b.String(), pos: start}, nil

	case c == '<':
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '>' || l.src[l.pos] == '=') {
			l.pos++
		}
		return token{kind: tokSymbol, text: l.src[start:l.pos], pos: start}, nil

	case c == '>':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
		}
		return token{kind: tokSymbol, text: l.src[start:l.pos], pos: start}, nil

	case c == '!':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return token{kind: tokSymbol, text: "<>", pos: start}, nil
		}
		return token{}, l.errf(start, "unexpected character %q", c)

	case strings.ContainsRune("(),*=+-.", rune(c)):
		l.pos++
		return token{kind: tokSymbol, text: string(c), pos: start}, nil
	}
	return token{}, l.errf(start, "unexpected character %q", c)
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
