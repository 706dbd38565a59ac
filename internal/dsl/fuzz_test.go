package dsl

import (
	"testing"
)

// FuzzParse fuzzes the DSL front end with two invariants, held by both
// entry points — Parse for programs and ParseLambda for the lambdas query
// plans carry:
//
//  1. Neither parser panics — arbitrary bytes either produce a Program (a
//     Lambda) or an error.
//  2. Accepted input survives print → reparse: the canonical surface
//     rendering is itself parseable, and printing again is a fixed point
//     (so the printer and the parser agree on the grammar).
//
// Run with `go test -fuzz=FuzzParse -fuzztime=10s ./internal/dsl`; the
// checked-in seed corpus under testdata/fuzz/FuzzParse (plus the f.Add
// seeds below) runs as part of the regular test suite.
func FuzzParse(f *testing.F) {
	seeds := []string{
		Figure2Source,
		"",
		"let a = map (\\x -> (x + 1)) (read 0 d)\nwrite out 0 a",
		"fn double(x) = (2 * x)\nlet a = map double (read 0 d)\nwrite out 0 (condense (filter (\\x -> (x > 5)) a))",
		"mut n\nn := 0\nloop {\n  n := (n + 1)\n  if (n >= 10) then { break }\n}",
		"let g = gen (\\i -> (i % 7)) 100\nlet m = merge union g g\nscatter d (gen (\\i -> i) 10) m sum",
		"let s = fold (\\acc x -> (acc + x)) 0 (read 0 d 16)",
		"let a = gather d (gen (\\i -> (i * 2)) 8)\nwrite out 0 (map (\\x -> cast<f64>(x)) a)",
		"let x = map (\\a b -> min(a, b)) (read 0 u) (read 0 v)\nwrite out 0 x",
		"if (1 < 2) then { write out 0 3 } else { write out 0 4 }",
		"let a = map (\\x -> abs(-x)) (read 0 d)\nlet b = map (\\x -> sqrt(x)) a\nwrite out 0 b",
		"# comment\nlet a = read 1 d (2 + 3)\nwrite out 0 a",
		"let a = map (\\x -> ((x * 3) % 5)) (read 0 d)\nlet s = fold (\\p q -> max(p, q)) -9 a\nwrite res 0 s",
		`(\d -> (d >= 2000) && (d < 2100))`,
		`\p d -> p * (1.0 - d)`,
		`(\k -> k <)`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if l1, err := ParseLambda(src); err == nil {
			out1 := l1.String()
			l2, err := ParseLambda(out1)
			if err != nil {
				t.Fatalf("printed lambda does not reparse: %v\n--- input ---\n%q\n--- printed ---\n%s", err, src, out1)
			}
			if out2 := l2.String(); out1 != out2 {
				t.Fatalf("lambda print is not a fixed point\n--- input ---\n%q\n--- first ---\n%s\n--- second ---\n%s", src, out1, out2)
			}
		}
		p1, err := Parse(src)
		if err != nil {
			return // rejected input: only the no-panic property applies
		}
		out1 := p1.String()
		p2, err := Parse(out1)
		if err != nil {
			t.Fatalf("printed program does not reparse: %v\n--- input ---\n%q\n--- printed ---\n%s", err, src, out1)
		}
		if out2 := p2.String(); out1 != out2 {
			t.Fatalf("print is not a fixed point\n--- input ---\n%q\n--- first ---\n%s\n--- second ---\n%s", src, out1, out2)
		}
	})
}
