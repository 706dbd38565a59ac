package dsl

import "strconv"

// AppendShape appends the lexical shape of src to dst and returns the
// extended slice: src's tokens, each closed by a space, with every integer
// literal written as ?i and every float literal as ?f. Identifiers,
// keywords and operators are written as they are and string literals in
// their Go quotation, so two sources share a shape exactly when their token
// streams are equal up to the values of their numeric literals — the same
// code with other constants. Spacing and comments are not part of the shape.
//
// A source that does not lex is appended as its Go quotation instead. Both
// forms end with a newline and contain no other, so a shape is
// self-delimiting inside a longer key; no lexing source shares a shape with
// a source that does not lex, since a shape's last byte before the newline
// is a space.
//
// The shape is built from the token stream without parsing: it costs one
// pass of the lexer and allocates only for string literals with escapes.
func AppendShape(dst []byte, src string) []byte {
	mark := len(dst)
	lx := newLexer(src)
	for {
		t, err := lx.next()
		if err != nil {
			return append(strconv.AppendQuote(dst[:mark], src), '\n')
		}
		switch t.kind {
		case tokEOF:
			return append(dst, '\n')
		case tokInt:
			dst = append(dst, "?i"...)
		case tokFloat:
			dst = append(dst, "?f"...)
		case tokString:
			dst = strconv.AppendQuote(dst, t.text)
		default:
			dst = append(dst, t.text...)
		}
		dst = append(dst, ' ')
	}
}
