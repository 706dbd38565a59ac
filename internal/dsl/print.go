package dsl

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/vector"
)

// Fprint writes p in canonical surface syntax to w. The output re-parses to
// an equivalent program (round-trip property tested in parser_test.go).
func Fprint(w io.Writer, p *Program) {
	pr := &printer{w: w, funcs: map[string]bool{}}
	for name := range p.Funcs {
		pr.funcs[name] = true
	}
	names := make([]string, 0, len(p.Funcs))
	for name := range p.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := p.Funcs[name]
		pr.printf("fn %s(%s) = ", f.Name, strings.Join(f.Params, ", "))
		pr.expr(f.Body)
		pr.nl()
	}
	pr.stmts(p.Body)
}

// String renders the lambda in canonical surface syntax, which
// ParseLambda reads back.
func (l *Lambda) String() string {
	var sb strings.Builder
	(&printer{w: &sb}).expr(l)
	return sb.String()
}

type printer struct {
	w      io.Writer
	indent int
	// funcs are the program's fn names: a call prints as an atom only for
	// declared functions, since that is the only call form the parser
	// accepts in atom (juxtaposition) position.
	funcs map[string]bool
}

func (pr *printer) printf(format string, args ...any) {
	fmt.Fprintf(pr.w, format, args...)
}

func (pr *printer) nl() {
	fmt.Fprintln(pr.w)
	for i := 0; i < pr.indent; i++ {
		fmt.Fprint(pr.w, "  ")
	}
}

func (pr *printer) stmts(stmts []Stmt) {
	for _, s := range stmts {
		pr.stmt(s)
		pr.nl()
	}
}

func (pr *printer) block(stmts []Stmt) {
	pr.printf("{")
	pr.indent++
	for _, s := range stmts {
		pr.nl()
		pr.stmt(s)
	}
	pr.indent--
	pr.nl()
	pr.printf("}")
}

func (pr *printer) stmt(s Stmt) {
	switch s := s.(type) {
	case *MutDecl:
		pr.printf("mut %s", s.Name)
	case *Assign:
		pr.printf("%s := ", s.Name)
		pr.expr(s.Val)
	case *Let:
		pr.printf("let %s = ", s.Name)
		pr.expr(s.Val)
		pr.printf(" in")
	case *Loop:
		pr.printf("loop ")
		pr.block(s.Body)
	case *Break:
		pr.printf("break")
	case *If:
		pr.printf("if ")
		pr.expr(s.Cond)
		pr.printf(" then ")
		pr.block(s.Then)
		if len(s.Else) > 0 {
			pr.printf(" else ")
			pr.block(s.Else)
		}
	case *WriteStmt:
		pr.printf("write %s ", s.Dst)
		pr.atom(s.At)
		pr.printf(" ")
		pr.atom(s.Val)
	case *ScatterStmt:
		pr.printf("scatter %s ", s.Dst)
		pr.atom(s.Idx)
		pr.printf(" ")
		pr.atom(s.Val)
		if s.Conflict != "" && s.Conflict != "last" {
			pr.printf(" %s", s.Conflict)
		}
	case *ExprStmt:
		pr.expr(s.E)
	default:
		pr.printf("/* unknown stmt %T */", s)
	}
}

// atom prints an expression, parenthesizing anything that is not already an
// atom, so it can appear as a skeleton argument.
func (pr *printer) atom(e Expr) {
	switch e := e.(type) {
	case *CallExpr:
		// Only declared functions call by juxtaposition in atom position.
		if pr.funcs[e.Name] {
			pr.expr(e)
			return
		}
	case *Const, *VarRef, *LenExpr, *CastExpr, *Lambda:
		pr.expr(e)
		return
	}
	pr.printf("(")
	pr.expr(e)
	pr.printf(")")
}

func (pr *printer) expr(e Expr) {
	switch e := e.(type) {
	case *Const:
		s := e.Val.String()
		if e.Val.Kind == vector.F64 && !strings.ContainsAny(s, ".eE") {
			// Keep float constants lexically float: "-0" or "100" would
			// re-parse as integers.
			s += ".0"
		}
		pr.printf("%s", s)
	case *VarRef:
		pr.printf("%s", e.Name)
	case *Bin:
		if e.Op == OpMin || e.Op == OpMax {
			pr.printf("%s(", e.Op)
			pr.expr(e.L)
			pr.printf(", ")
			pr.expr(e.R)
			pr.printf(")")
			return
		}
		pr.printf("(")
		pr.expr(e.L)
		pr.printf(" %s ", e.Op)
		pr.expr(e.R)
		pr.printf(")")
	case *Un:
		switch e.Op {
		case UnAbs, UnSqrt:
			pr.printf("%s(", e.Op)
			pr.expr(e.E)
			pr.printf(")")
		default:
			pr.printf("%s", e.Op)
			pr.atom(e.E)
		}
	case *Lambda:
		if call, ok := e.Body.(*CallExpr); ok && e.Params == nil && len(call.Args) == 0 {
			pr.printf("%s", call.Name) // named function reference
			return
		}
		pr.printf("(\\%s -> ", strings.Join(e.Params, " "))
		pr.expr(e.Body)
		pr.printf(")")
	case *CallExpr:
		pr.printf("%s(", e.Name)
		for i, a := range e.Args {
			if i > 0 {
				pr.printf(", ")
			}
			pr.expr(a)
		}
		pr.printf(")")
	case *LenExpr:
		pr.printf("len(")
		pr.expr(e.E)
		pr.printf(")")
	case *CastExpr:
		pr.printf("cast<%s>(", e.To)
		pr.expr(e.E)
		pr.printf(")")
	case *ReadExpr:
		pr.printf("read ")
		pr.atom(e.At)
		pr.printf(" %s", e.Data)
		if e.Count != nil {
			pr.printf(" ")
			pr.atom(e.Count)
		}
	case *MapExpr:
		pr.printf("map ")
		pr.expr(e.Fn)
		for _, a := range e.Args {
			pr.printf(" ")
			pr.atom(a)
		}
	case *FilterExpr:
		pr.printf("filter ")
		pr.expr(e.Pred)
		pr.printf(" ")
		pr.atom(e.Arg)
	case *FoldExpr:
		pr.printf("fold ")
		pr.expr(e.Fn)
		pr.printf(" ")
		pr.atom(e.Init)
		pr.printf(" ")
		pr.atom(e.Arg)
	case *GatherExpr:
		pr.printf("gather %s ", e.Data)
		pr.atom(e.Idx)
	case *GenExpr:
		pr.printf("gen ")
		pr.expr(e.Fn)
		pr.printf(" ")
		pr.atom(e.Count)
	case *CondenseExpr:
		pr.printf("condense ")
		pr.atom(e.E)
	case *MergeExpr:
		pr.printf("merge %s ", e.Kind)
		pr.atom(e.L)
		pr.printf(" ")
		pr.atom(e.R)
	default:
		pr.printf("/* unknown expr %T */", e)
	}
}
