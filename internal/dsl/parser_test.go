package dsl

import (
	"strings"
	"testing"

	"repro/internal/vector"
)

func TestParseFigure2(t *testing.T) {
	p, err := Parse(Figure2Source)
	if err != nil {
		t.Fatalf("Parse(Figure2) failed: %v", err)
	}
	if len(p.Body) != 5 {
		t.Fatalf("top-level statements = %d, want 5 (mut,mut,:=,:=,loop)", len(p.Body))
	}
	loop, ok := p.Body[4].(*Loop)
	if !ok {
		t.Fatalf("5th statement is %T, want *Loop", p.Body[4])
	}
	if len(loop.Body) != 9 {
		t.Fatalf("loop body statements = %d, want 9", len(loop.Body))
	}
	ext := p.Externals()
	want := []string{"some_data", "v", "w"}
	if len(ext) != len(want) {
		t.Fatalf("externals = %v, want %v", ext, want)
	}
	for i := range want {
		if ext[i] != want[i] {
			t.Fatalf("externals = %v, want %v", ext, want)
		}
	}
}

func TestParseSkeletons(t *testing.T) {
	cases := []struct {
		src  string
		want string // type name of the expression
	}{
		{`read 0 d`, "*dsl.ReadExpr"},
		{`read 0 d 16`, "*dsl.ReadExpr"},
		{`map (\x -> x+1) a`, "*dsl.MapExpr"},
		{`map (\x y -> x+y) a b`, "*dsl.MapExpr"},
		{`filter (\x -> x > 3) a`, "*dsl.FilterExpr"},
		{`fold (\acc x -> acc + x) 0 a`, "*dsl.FoldExpr"},
		{`gather d idx`, "*dsl.GatherExpr"},
		{`gen (\i -> i*i) 10`, "*dsl.GenExpr"},
		{`condense a`, "*dsl.CondenseExpr"},
		{`merge join a b`, "*dsl.MergeExpr"},
		{`merge union a b`, "*dsl.MergeExpr"},
		{`merge diff a b`, "*dsl.MergeExpr"},
		{`merge intersect a b`, "*dsl.MergeExpr"},
		{`len(a)`, "*dsl.LenExpr"},
		{`cast<i32>(a)`, "*dsl.CastExpr"},
		{`min(a, b)`, "*dsl.Bin"},
		{`sqrt(a)`, "*dsl.Un"},
	}
	for _, c := range cases {
		p, err := Parse("let z = " + c.src)
		if err != nil {
			t.Errorf("Parse(%q) failed: %v", c.src, err)
			continue
		}
		let := p.Body[0].(*Let)
		got := typeName(let.Val)
		if got != c.want {
			t.Errorf("Parse(%q) = %s, want %s", c.src, got, c.want)
		}
	}
}

func typeName(e Expr) string {
	switch e.(type) {
	case *ReadExpr:
		return "*dsl.ReadExpr"
	case *MapExpr:
		return "*dsl.MapExpr"
	case *FilterExpr:
		return "*dsl.FilterExpr"
	case *FoldExpr:
		return "*dsl.FoldExpr"
	case *GatherExpr:
		return "*dsl.GatherExpr"
	case *GenExpr:
		return "*dsl.GenExpr"
	case *CondenseExpr:
		return "*dsl.CondenseExpr"
	case *MergeExpr:
		return "*dsl.MergeExpr"
	case *LenExpr:
		return "*dsl.LenExpr"
	case *CastExpr:
		return "*dsl.CastExpr"
	case *Bin:
		return "*dsl.Bin"
	case *Un:
		return "*dsl.Un"
	case *Const:
		return "*dsl.Const"
	case *VarRef:
		return "*dsl.VarRef"
	case *Lambda:
		return "*dsl.Lambda"
	case *CallExpr:
		return "*dsl.CallExpr"
	}
	return "?"
}

func TestParsePrecedence(t *testing.T) {
	p := MustParse(`let z = 1 + 2 * 3`)
	bin := p.Body[0].(*Let).Val.(*Bin)
	if bin.Op != OpAdd {
		t.Fatalf("top op = %v, want +", bin.Op)
	}
	r := bin.R.(*Bin)
	if r.Op != OpMul {
		t.Fatalf("right op = %v, want *", r.Op)
	}

	p = MustParse(`let z = 1 + 2 >= 3 - 4`)
	bin = p.Body[0].(*Let).Val.(*Bin)
	if bin.Op != OpGe {
		t.Fatalf("comparison should bind loosest, got %v", bin.Op)
	}
}

func TestParseLiterals(t *testing.T) {
	p := MustParse(`let a = 42
let b = 3.5
let c = "hi"
let d = true
let e = -7
let f = 1_000_000
let g = 2e3`)
	vals := []vector.Value{
		vector.I64Value(42),
		vector.F64Value(3.5),
		vector.StrValue("hi"),
		vector.BoolValue(true),
		vector.I64Value(-7),
		vector.I64Value(1000000),
		vector.F64Value(2000),
	}
	for i, want := range vals {
		got := p.Body[i].(*Let).Val.(*Const).Val
		if !got.Equal(want) {
			t.Errorf("literal %d = %v, want %v", i, got, want)
		}
	}
}

func TestParseFuncDefAndCall(t *testing.T) {
	p := MustParse(`
fn double(x) = 2*x
fn hyp(a, b) = sqrt(a*a + b*b)
let y = double(3)
let z = map double xs
`)
	if len(p.Funcs) != 2 {
		t.Fatalf("funcs = %d, want 2", len(p.Funcs))
	}
	if got := len(p.Funcs["hyp"].Params); got != 2 {
		t.Fatalf("hyp params = %d", got)
	}
	m := p.Body[1].(*Let).Val.(*MapExpr)
	if call, ok := m.Fn.Body.(*CallExpr); !ok || call.Name != "double" {
		t.Fatalf("map fn should be named reference to double")
	}
}

func TestParseIfElseAndScatter(t *testing.T) {
	p := MustParse(`
mut x
x := 0
if x > 1 then { x := 2 } else { x := 3 }
scatter d idx vals sum
`)
	ifs := p.Body[2].(*If)
	if len(ifs.Then) != 1 || len(ifs.Else) != 1 {
		t.Fatal("if/else blocks wrong")
	}
	sc := p.Body[3].(*ScatterStmt)
	if sc.Conflict != "sum" || sc.Dst != "d" {
		t.Fatalf("scatter parsed wrong: %+v", sc)
	}
}

func TestParseComments(t *testing.T) {
	p := MustParse(`
# hash comment
-- dash comment, as in the paper's listings
let a = 1 # trailing
`)
	if len(p.Body) != 1 {
		t.Fatalf("body = %d statements", len(p.Body))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`let = 3`,
		`loop`,
		`if x then`,
		`map a`,
		`fold (\a -> a) 0 xs + `,
		`let a = (\x -> `,
		`merge banana a b`,
		`cast<banana>(x)`,
		`let s = "unterminated`,
		`let a = 3 @`,
		`fn f(x) = x fn f(y) = y`,
		`write`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// TestParseLambda: the plan-lambda entry point takes exactly one lambda,
// parenthesized or not, and reports errors at positions in the lambda's own
// text.
func TestParseLambda(t *testing.T) {
	for src, params := range map[string]int{
		`(\k -> k < 10)`:              1,
		`\k -> k < 10`:                1,
		`(\p d -> p * (1.0 - d))`:     2,
		"(\\x ->\n(x\n* 2))":          1,
		` ( \map_ -> map_ + 1 ) -- c`: 1,
	} {
		l, err := ParseLambda(src)
		if err != nil {
			t.Errorf("ParseLambda(%q): %v", src, err)
			continue
		}
		if len(l.Params) != params {
			t.Errorf("ParseLambda(%q) has %d parameters, want %d", src, len(l.Params), params)
		}
		if again, err := ParseLambda(l.String()); err != nil || again.String() != l.String() {
			t.Errorf("ParseLambda(%q) does not round-trip through %q: %v", src, l.String(), err)
		}
	}
	for src, pos := range map[string]string{
		`(\k -> k <)`:       "1:11",
		"(\\k ->\n  k <)":   "2:6",
		`(\k -> k) c0`:      "1:11",
		`((\k -> k))`:       "1:2",
		`(\k -> k`:          "1:9",
		`\k -> k` + "\n+ 1": "2:1",
		`f`:                 "1:1",
		`\ -> 1`:            "1:1",
		``:                  "1:1",
	} {
		_, err := ParseLambda(src)
		if err == nil || !strings.Contains(err.Error(), "dsl: "+pos+":") {
			t.Errorf("ParseLambda(%q) = %v, want an error at %s", src, err, pos)
		}
	}
}

// Round trip: print then re-parse then re-print must be a fixed point.
// TestParseMultilineParens: inside parentheses, expressions span lines
// freely (leading operators included) — the line-contiguity rule only
// guards unparenthesized statement boundaries.
func TestParseMultilineParens(t *testing.T) {
	for _, src := range []string{
		"let a = (1\n+ 2)",
		"let a = map (\\x ->\n(x\n* 2)) (read 0 d)",
		"fn f(x) = (x + 1)\nlet a = f(\n2\n)",
		"let a = min(1,\n2)",
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("multi-line parenthesized expression rejected: %v\n%s", err, src)
		}
	}
	// Without parens the next statement must not be absorbed: "a" and "-2"
	// stay separate statements instead of merging into "(a - 2)".
	p, err := Parse("let a = 1 in a\n-2")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Body) != 3 {
		t.Fatalf("statement absorbed across lines: %d stmts\n%s", len(p.Body), p.String())
	}
}

func TestPrintRoundTrip(t *testing.T) {
	srcs := []string{
		Figure2Source,
		`fn double(x) = (2 * x)
let a = map double (read 0 d)
let s = fold (\acc x -> (acc + x)) 0 a
write out 0 (condense (filter (\x -> (x > 5)) a))`,
		`mut n
n := 0
loop {
  n := (n + 1)
  if (n >= 10) then { break }
}`,
		`let g = gen (\i -> (i % 7)) 100
let m = merge union g g
scatter d (gen (\i -> i) 10) m sum`,
	}
	for _, src := range srcs {
		p1, err := Parse(src)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, src)
		}
		out1 := p1.String()
		p2, err := Parse(out1)
		if err != nil {
			t.Fatalf("re-parse of printed output failed: %v\n---\n%s", err, out1)
		}
		out2 := p2.String()
		if out1 != out2 {
			t.Errorf("print not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", out1, out2)
		}
	}
}

func TestCheckCatchesErrors(t *testing.T) {
	cases := []struct {
		src  string
		frag string // expected error substring
	}{
		{`x := 1`, "undeclared"},
		{`let a = 1
a := 2`, "immutable"},
		{`break`, "break outside loop"},
		{`let a = b`, "undefined variable"},
		{`let a = read 0 nope`, "not a bound external"},
		{`write nope 0 0`, "not a bound external"},
		{`let a = f(1)`, "undefined function"},
		{`fn f(x) = x
let a = f(1, 2)`, "takes 1 arguments"},
		{`let a = filter (\x y -> x) q`, "1-ary"},
		{`mut a
mut a`, "redeclaration"},
		{`mut a
a := 1
let a = 2`, "shadows a mutable"},
		{`scatter d i v frobnicate`, "conflict"},
	}
	for _, c := range cases {
		p, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q) failed: %v", c.src, err)
			continue
		}
		errs := Check(p, []string{"d", "q", "i", "v"})
		if len(errs) == 0 {
			t.Errorf("Check(%q) found no errors, want %q", c.src, c.frag)
			continue
		}
		found := false
		for _, e := range errs {
			if strings.Contains(e.Error(), c.frag) {
				found = true
			}
		}
		if !found {
			t.Errorf("Check(%q) = %v, want substring %q", c.src, errs, c.frag)
		}
	}
}

func TestCheckAcceptsFigure2(t *testing.T) {
	p := MustParse(Figure2Source)
	if errs := Check(p, []string{"some_data", "v", "w"}); len(errs) != 0 {
		t.Fatalf("Figure 2 should check cleanly, got %v", errs)
	}
}
