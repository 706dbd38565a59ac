package dsl

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// tokKind identifies the lexical class of a token.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokFloat
	tokString
	tokOp      // operators and punctuation
	tokKeyword // reserved words
)

var keywords = map[string]bool{
	"mut": true, "let": true, "in": true, "loop": true, "break": true,
	"if": true, "then": true, "else": true, "fn": true,
	"read": true, "write": true, "map": true, "filter": true, "fold": true,
	"gather": true, "scatter": true, "gen": true, "condense": true,
	"merge": true, "len": true, "cast": true, "true": true, "false": true,
	"min": true, "max": true, "abs": true, "sqrt": true,
}

// token is one lexical token with its source position.
type token struct {
	kind tokKind
	text string
	pos  Position
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lexer turns DSL source text into tokens.
type lexer struct {
	src  string
	off  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (lx *lexer) errorf(pos Position, format string, args ...any) error {
	return fmt.Errorf("dsl: %s: %s", pos, fmt.Sprintf(format, args...))
}

func (lx *lexer) peekByte() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *lexer) skipSpaceAndComments() {
	for lx.off < len(lx.src) {
		c := lx.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '#':
			for lx.off < len(lx.src) && lx.peekByte() != '\n' {
				lx.advance()
			}
		case c == '-' && lx.off+1 < len(lx.src) && lx.src[lx.off+1] == '-':
			// Haskell-style comment, to match the paper's lambda notation.
			for lx.off < len(lx.src) && lx.peekByte() != '\n' {
				lx.advance()
			}
		default:
			return
		}
	}
}

// isMultiOp reports whether op is one of the two-character operators.
func isMultiOp(op string) bool {
	switch op {
	case "==", "!=", "<=", ">=", "<<", ">>", ":=", "->", "&&", "||":
		return true
	}
	return false
}

// next returns the next token.
func (lx *lexer) next() (token, error) {
	lx.skipSpaceAndComments()
	pos := Position{lx.line, lx.col}
	if lx.off >= len(lx.src) {
		return token{kind: tokEOF, pos: pos}, nil
	}
	c := lx.peekByte()

	// identifiers and keywords
	if unicode.IsLetter(rune(c)) || c == '_' {
		start := lx.off
		for lx.off < len(lx.src) {
			c := lx.peekByte()
			if unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)) || c == '_' {
				lx.advance()
				continue
			}
			break
		}
		text := lx.src[start:lx.off]
		if keywords[text] {
			return token{kind: tokKeyword, text: text, pos: pos}, nil
		}
		return token{kind: tokIdent, text: text, pos: pos}, nil
	}

	// numbers
	if unicode.IsDigit(rune(c)) {
		start := lx.off
		isFloat := false
		for lx.off < len(lx.src) {
			c := lx.peekByte()
			if unicode.IsDigit(rune(c)) || c == '_' {
				lx.advance()
				continue
			}
			if c == '.' && !isFloat && lx.off+1 < len(lx.src) && unicode.IsDigit(rune(lx.src[lx.off+1])) {
				isFloat = true
				lx.advance()
				continue
			}
			if (c == 'e' || c == 'E') && lx.off+1 < len(lx.src) {
				nxt := lx.src[lx.off+1]
				if unicode.IsDigit(rune(nxt)) || nxt == '+' || nxt == '-' {
					isFloat = true
					lx.advance() // e
					lx.advance() // sign or digit
					continue
				}
			}
			break
		}
		text := strings.ReplaceAll(lx.src[start:lx.off], "_", "")
		if isFloat {
			return token{kind: tokFloat, text: text, pos: pos}, nil
		}
		return token{kind: tokInt, text: text, pos: pos}, nil
	}

	// strings
	if c == '"' {
		// Scan the raw literal (backslash escapes the next byte) and decode
		// it with Go's string syntax, so everything the canonical printer
		// emits via strconv.Quote — \xNN, \uNNNN, … — round-trips.
		start := lx.off
		lx.advance()
		for {
			if lx.off >= len(lx.src) {
				return token{}, lx.errorf(pos, "unterminated string literal")
			}
			ch := lx.advance()
			if ch == '"' {
				break
			}
			if ch == '\n' {
				return token{}, lx.errorf(pos, "newline in string literal")
			}
			if ch == '\\' {
				if lx.off >= len(lx.src) {
					return token{}, lx.errorf(pos, "unterminated escape")
				}
				lx.advance()
			}
		}
		text, err := strconv.Unquote(lx.src[start:lx.off])
		if err != nil {
			return token{}, lx.errorf(pos, "bad string literal: %v", err)
		}
		return token{kind: tokString, text: text, pos: pos}, nil
	}

	// two-char operators
	if lx.off+2 <= len(lx.src) && isMultiOp(lx.src[lx.off:lx.off+2]) {
		lx.advance()
		lx.advance()
		return token{kind: tokOp, text: lx.src[lx.off-2 : lx.off], pos: pos}, nil
	}

	// single-char operators / punctuation
	switch c {
	case '+', '-', '*', '/', '%', '&', '|', '^', '<', '>', '=', '(', ')', '{', '}', ',', '\\', '!', '[', ']':
		lx.advance()
		return token{kind: tokOp, text: lx.src[lx.off-1 : lx.off], pos: pos}, nil
	}
	return token{}, lx.errorf(pos, "unexpected character %q", c)
}

// lexAll tokenizes the whole input (used by the parser, which buffers).
func lexAll(src string) ([]token, error) {
	lx := newLexer(src)
	var toks []token
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}
