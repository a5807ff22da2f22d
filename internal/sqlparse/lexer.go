// Package sqlparse parses the SQL dialect of the benchmark queries
// (Table III): single-series aggregations with time/value predicates and
// sliding windows, series union with time ordering, and natural joins
// with arithmetic projections.
//
// Grammar (case-insensitive keywords):
//
//	query   := SELECT items FROM source [WHERE pred (AND pred)*]
//	           [window] [UNION series] [ORDER BY TIME] [LIMIT int] [';']
//	window  := SW '(' int ',' int [',' int] ')'
//	         | GROUP BY TIME '(' int [',' int] ')'
//	items   := '*' | item (',' item)*
//	item    := agg '(' col ')' | CORR '(' col ',' col ')' | col '+' col | col
//	agg     := SUM | AVG | COUNT | MIN | MAX | VAR | FIRST | LAST
//	source  := series [',' series] | '(' query ')'
//	pred    := col op int
//	col     := [series '.'] ('A' | 'TIME' | 'VALUE')
//	op      := '<' | '<=' | '>' | '>=' | '=' | '!='
//
// SW(Tmin, width[, slide]) anchors windows at the explicit Tmin;
// GROUP BY TIME(width[, slide]) anchors at the query's time lower bound
// (or the series' first timestamp when unbounded below). Omitting slide
// tumbles (slide = width).
//
// Series names are dotted identifiers (e.g. root.sg.d1.velocity); a final
// segment A, TIME, or VALUE denotes a column reference on that series.
package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokSymbol // one of ( ) , * + ; . and comparison operators
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

type lexer struct {
	src    string
	pos    int
	tokens []token
}

// lex splits src into tokens; comparison operators are greedy (<= not <,=).
func lex(src string) ([]token, error) {
	// A token with the space after it mostly spans two bytes or more (a
	// time-range probe of 84 bytes holds 16), so this is rarely regrown.
	l := &lexer{src: src, tokens: make([]token, 0, len(src)/2+1)}
	for l.pos < len(l.src) {
		c := rune(l.src[l.pos])
		switch {
		case unicode.IsSpace(c):
			l.pos++
		case unicode.IsLetter(c) || c == '_':
			l.lexIdent()
		case unicode.IsDigit(c):
			l.lexNumber()
		case c == '-':
			// Negative literal (the dialect has no binary minus).
			l.pos++
			if l.pos >= len(l.src) || !unicode.IsDigit(rune(l.src[l.pos])) {
				return nil, fmt.Errorf("sqlparse: stray '-' at %d", l.pos-1)
			}
			start := l.pos - 1
			for l.pos < len(l.src) && unicode.IsDigit(rune(l.src[l.pos])) {
				l.pos++
			}
			l.tokens = append(l.tokens, token{tokNumber, l.src[start:l.pos], start})
		case strings.ContainsRune("<>!=", c):
			start := l.pos
			l.pos++
			if l.pos < len(l.src) && l.src[l.pos] == '=' {
				l.pos++
			}
			op := l.src[start:l.pos]
			if op == "!" {
				return nil, fmt.Errorf("sqlparse: stray '!' at %d", start)
			}
			l.tokens = append(l.tokens, token{tokSymbol, op, start})
		case strings.ContainsRune("(),*+;.", c):
			l.tokens = append(l.tokens, token{tokSymbol, l.src[l.pos : l.pos+1], l.pos})
			l.pos++
		default:
			return nil, fmt.Errorf("sqlparse: unexpected character %q at %d", c, l.pos)
		}
	}
	l.tokens = append(l.tokens, token{tokEOF, "", l.pos})
	return l.tokens, nil
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) {
		c := rune(l.src[l.pos])
		if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' {
			l.pos++
			continue
		}
		break
	}
	l.tokens = append(l.tokens, token{tokIdent, l.src[start:l.pos], start})
}

func (l *lexer) lexNumber() {
	start := l.pos
	for l.pos < len(l.src) && unicode.IsDigit(rune(l.src[l.pos])) {
		l.pos++
	}
	l.tokens = append(l.tokens, token{tokNumber, l.src[start:l.pos], start})
}
