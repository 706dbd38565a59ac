package dsl

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzLambdaShape fuzzes AppendShape against its contract. For a source
// that lexes, two sources share a shape exactly when their token streams
// are equal up to the values of their numeric literals: the shape is
// deterministic, ignores spacing, is unchanged when an int literal is
// swapped for another int or a float for another float, and changes when a
// non-literal token changes, a literal changes kind, a token goes, or two
// tokens are glued into one. A source that does not lex has its Go
// quotation as its shape.
//
// Run with `go test -fuzz=FuzzLambdaShape -fuzztime=10s ./internal/dsl`.
func FuzzLambdaShape(f *testing.F) {
	for _, s := range []string{
		`(\d -> (d >= 730) && (d < 1095))`,
		`(\x -> (x >= 0.05) && (x <= 0.07))`,
		`(\v -> (v % 7) == 3)`,
		`(\p d -> p * (1.0 - d))`,
		`(\v -> v < -1_000) -- comment`,
		`(\s -> s == "a b\n")`,
		`\x -> x * 1e-3 + 2E5`,
		"# only a comment",
		`(\k -> k <)`,
		`"unterminated`,
		"(\\x -> x $ 1)",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		shape := string(AppendShape(nil, src))
		if again := string(AppendShape([]byte("prefix"), src)); again != "prefix"+shape {
			t.Fatalf("shape of %q not deterministic: %q vs %q", src, shape, again)
		}
		toks, err := lexAll(src)
		if err != nil {
			if want := strconv.Quote(src) + "\n"; shape != want {
				t.Fatalf("%q does not lex: shape %q, want its quotation", src, shape)
			}
			return
		}
		toks = toks[:len(toks)-1] // EOF
		check := func(what string, mutated []string) {
			t.Helper()
			msrc := strings.Join(mutated, " ")
			mtoks, err := lexAll(msrc)
			if err != nil {
				return // the edit does not lex (e.g. an overflowing magnitude glued on)
			}
			same := sameShape(toks, mtoks[:len(mtoks)-1])
			if got := string(AppendShape(nil, msrc)) == shape; got != same {
				t.Fatalf("%s: %q and %q share a shape: %v, want %v", what, src, msrc, got, same)
			}
		}
		spelled := make([]string, len(toks))
		for i, tk := range toks {
			spelled[i] = spell(tk)
		}
		check("respaced", spelled)
		for i, tk := range toks {
			edit := func(what, text string) {
				mutated := append([]string(nil), spelled...)
				mutated[i] = text
				check(what, mutated)
			}
			switch tk.kind {
			case tokInt:
				edit("int swapped", "12345")
				edit("int to float", "1.5")
			case tokFloat:
				edit("float swapped", "6.25")
				edit("float to int", "7")
			case tokString:
				edit("string changed", strconv.Quote(tk.text+"x"))
			case tokOp:
				for _, op := range []string{"+", "*", "=="} {
					if op != tk.text {
						edit("operator changed", op)
						break
					}
				}
			default:
				edit("name changed", tk.text+"z")
			}
			check("token dropped", append(append([]string(nil), spelled[:i]...), spelled[i+1:]...))
			if i+1 < len(spelled) {
				joined := append(append([]string(nil), spelled[:i]...), spelled[i]+spelled[i+1])
				check("tokens joined", append(joined, spelled[i+2:]...))
			}
		}
	})
}

// spell renders a token as source text that lexes back to it.
func spell(tk token) string {
	if tk.kind == tokString {
		return strconv.Quote(tk.text)
	}
	return tk.text
}

// sameShape is the shape relation on token streams: equal kinds, and equal
// texts for every token but a numeric literal.
func sameShape(a, b []token) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].kind != b[i].kind {
			return false
		}
		if a[i].kind != tokInt && a[i].kind != tokFloat && a[i].text != b[i].text {
			return false
		}
	}
	return true
}
