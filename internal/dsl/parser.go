package dsl

import (
	"fmt"
	"strconv"

	"repro/internal/vector"
)

// Parse parses DSL source text into a Program. The accepted grammar is the
// Figure-2 surface syntax with explicit braces for blocks:
//
//	program  := { funcdef | stmt }
//	funcdef  := "fn" IDENT "(" [IDENT {"," IDENT}] ")" "=" expr
//	stmt     := "mut" IDENT
//	          | "let" IDENT "=" expr ["in"]
//	          | IDENT ":=" expr
//	          | "loop" block
//	          | "break"
//	          | "if" expr "then" (block | stmt) ["else" (block | stmt)]
//	          | "write" IDENT atom atom
//	          | "scatter" IDENT atom atom [IDENT]
//	          | expr
//	block    := "{" { stmt } "}"
//
// Expressions use conventional precedence; skeletons are keyword-led
// applications whose arguments are atoms (parenthesize anything complex):
//
//	read i data [n]      map f a [b]      filter p a      fold f init a
//	gather data idx      gen f n          condense a      merge join a b
//	len(a)               cast<i32>(a)     min(a,b) max(a,b) abs(a) sqrt(a)
//
// Lambdas are written in the paper's notation: (\x -> 2*x).
func Parse(src string) (*Program, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, funcs: map[string]bool{}, depth: parenDepths(toks)}
	prog := &Program{Funcs: map[string]*FuncDef{}}
	for !p.at(tokEOF, "") {
		if p.at(tokKeyword, "fn") {
			fd, err := p.parseFuncDef()
			if err != nil {
				return nil, err
			}
			if _, dup := prog.Funcs[fd.Name]; dup {
				return nil, p.errAt(fd.P, "duplicate function %q", fd.Name)
			}
			prog.Funcs[fd.Name] = fd
			p.funcs[fd.Name] = true
			continue
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		prog.Body = append(prog.Body, s)
	}
	return prog, nil
}

// MustParse parses src and panics on error. For tests and examples.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// ParseLambda parses the source of one lambda, optionally in parentheses,
// with nothing after it: the form query plans carry their filter predicates
// and computed expressions in, e.g. (\p d -> p * (1.0 - d)). Error
// positions are relative to src itself.
func ParseLambda(src string) (*Lambda, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, funcs: map[string]bool{}, depth: parenDepths(toks)}
	paren := p.eat(tokOp, "(")
	lam, err := p.parseLambda()
	if err != nil {
		return nil, err
	}
	if paren {
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
	}
	if t := p.cur(); t.kind != tokEOF {
		return nil, p.errAt(t.pos, "unexpected %s after the lambda", t)
	}
	return lam, nil
}

// MustParseLambda is ParseLambda that panics on error. For tests and
// statically known lambdas.
func MustParseLambda(src string) *Lambda {
	l, err := ParseLambda(src)
	if err != nil {
		panic(err)
	}
	return l
}

type parser struct {
	toks []token
	pos  int
	// depth[i] is the number of unclosed "(" before token i (see
	// parenDepths); contiguous() consults it.
	depth []int
	// funcs tracks fn names defined so far: an identifier followed by "("
	// is a call only for known functions, resolving the juxtaposition
	// ambiguity in skeleton argument lists (e.g. "write o i (map ...)").
	funcs map[string]bool
}

// parenDepths computes, for each token, how many "(" are unclosed before
// it. Inside an open paren no statement can begin, so the line-contiguity
// rule (which only exists to keep expressions from absorbing the next
// statement) is suspended there and parenthesized expressions may span
// lines freely.
func parenDepths(toks []token) []int {
	depth := make([]int, len(toks))
	d := 0
	for i, t := range toks {
		if t.kind == tokOp && t.text == ")" && d > 0 {
			d--
		}
		depth[i] = d
		if t.kind == tokOp && t.text == "(" {
			d++
		}
	}
	return depth
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) peek() token { return p.toks[min(p.pos+1, len(p.toks)-1)] }

// contiguous reports whether the current token may continue the construct
// the previous token belongs to. Juxtaposition continuations — a call's
// "(", variable-arity skeleton arguments, read's optional count, scatter's
// optional conflict, an infix operator — are only taken when contiguous,
// so such constructs never swallow the opening tokens of the next
// statement (the statement list itself has no separator tokens). A token
// is contiguous when it starts on the same source line as the previous
// token, or when it sits inside an unclosed "(" — no statement can begin
// there, so parenthesized expressions still span lines freely.
func (p *parser) contiguous() bool {
	if p.pos == 0 || p.depth[p.pos] > 0 {
		return true
	}
	return p.cur().pos.Line == p.toks[p.pos-1].pos.Line
}

func (p *parser) at(kind tokKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) eat(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text string) (token, error) {
	t := p.cur()
	if !p.at(kind, text) {
		want := text
		if want == "" {
			want = map[tokKind]string{tokIdent: "identifier", tokInt: "integer", tokOp: "operator"}[kind]
		}
		return t, p.errAt(t.pos, "expected %s, found %s", want, t)
	}
	p.pos++
	return t, nil
}

func (p *parser) errAt(pos Position, format string, args ...any) error {
	return fmt.Errorf("dsl: %s: %s", pos, fmt.Sprintf(format, args...))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------------
// Declarations and statements

func (p *parser) parseFuncDef() (*FuncDef, error) {
	start := p.cur().pos
	p.pos++ // fn
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokOp, "("); err != nil {
		return nil, err
	}
	var params []string
	for !p.at(tokOp, ")") {
		id, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		params = append(params, id.text)
		if !p.eat(tokOp, ",") {
			break
		}
	}
	if _, err := p.expect(tokOp, ")"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokOp, "="); err != nil {
		return nil, err
	}
	body, err := p.parseExpr(0)
	if err != nil {
		return nil, err
	}
	return &FuncDef{base: base{start}, Name: name.text, Params: params, Body: body}, nil
}

func (p *parser) parseBlock() ([]Stmt, error) {
	if _, err := p.expect(tokOp, "{"); err != nil {
		return nil, err
	}
	var stmts []Stmt
	for !p.at(tokOp, "}") {
		if p.at(tokEOF, "") {
			return nil, p.errAt(p.cur().pos, "unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	p.pos++ // }
	return stmts, nil
}

func (p *parser) parseBlockOrStmt() ([]Stmt, error) {
	if p.at(tokOp, "{") {
		return p.parseBlock()
	}
	s, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return []Stmt{s}, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch {
	case p.at(tokKeyword, "mut"):
		p.pos++
		id, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		return &MutDecl{base: base{t.pos}, Name: id.text}, nil

	case p.at(tokKeyword, "let"):
		p.pos++
		id, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, "="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr(0)
		if err != nil {
			return nil, err
		}
		p.eat(tokKeyword, "in") // optional, as in Figure 2
		return &Let{base: base{t.pos}, Name: id.text, Val: val}, nil

	case p.at(tokKeyword, "loop"):
		p.pos++
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &Loop{base: base{t.pos}, Body: body}, nil

	case p.at(tokKeyword, "break"):
		p.pos++
		return &Break{base: base{t.pos}}, nil

	case p.at(tokKeyword, "if"):
		p.pos++
		cond, err := p.parseExpr(0)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "then"); err != nil {
			return nil, err
		}
		then, err := p.parseBlockOrStmt()
		if err != nil {
			return nil, err
		}
		var els []Stmt
		if p.eat(tokKeyword, "else") {
			els, err = p.parseBlockOrStmt()
			if err != nil {
				return nil, err
			}
		}
		return &If{base: base{t.pos}, Cond: cond, Then: then, Else: els}, nil

	case p.at(tokKeyword, "write"):
		p.pos++
		dst, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		pos, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		val, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		return &WriteStmt{base: base{t.pos}, Dst: dst.text, At: pos, Val: val}, nil

	case p.at(tokKeyword, "scatter"):
		p.pos++
		dst, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		idx, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		val, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		conflict := "last"
		if (p.at(tokIdent, "") || p.at(tokKeyword, "min") || p.at(tokKeyword, "max")) && p.contiguous() {
			conflict = p.cur().text
			p.pos++
		}
		return &ScatterStmt{base: base{t.pos}, Dst: dst.text, Idx: idx, Val: val, Conflict: conflict}, nil

	case t.kind == tokIdent && p.peek().kind == tokOp && p.peek().text == ":=":
		p.pos += 2
		val, err := p.parseExpr(0)
		if err != nil {
			return nil, err
		}
		return &Assign{base: base{t.pos}, Name: t.text, Val: val}, nil
	}

	e, err := p.parseExpr(0)
	if err != nil {
		return nil, err
	}
	return &ExprStmt{base: base{t.pos}, E: e}, nil
}

// ---------------------------------------------------------------------------
// Expressions: Pratt parser

var binPrec = map[string]int{
	"||": 1, "&&": 2,
	"|": 3, "^": 4, "&": 5,
	"==": 6, "!=": 6,
	"<": 7, "<=": 7, ">": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

var binOpFromText = map[string]BinOp{
	"+": OpAdd, "-": OpSub, "*": OpMul, "/": OpDiv, "%": OpMod,
	"&": OpAnd, "|": OpOr, "^": OpXor, "<<": OpShl, ">>": OpShr,
	"==": OpEq, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
	"&&": OpAnd, "||": OpOr,
}

func (p *parser) parseExpr(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tokOp {
			break
		}
		prec, ok := binPrec[t.text]
		if !ok || prec < minPrec {
			break
		}
		// An infix operator must start on the line its left operand ended
		// on (its right operand may continue on the next line), so an
		// expression statement never absorbs the next statement.
		if !p.contiguous() {
			break
		}
		p.pos++
		rhs, err := p.parseExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Bin{base: base{t.pos}, Op: binOpFromText[t.text], L: lhs, R: rhs}
	}
	return lhs, nil
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.cur()
	if t.kind == tokOp && (t.text == "-" || t.text == "!") {
		p.pos++
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		op := UnNeg
		if t.text == "!" {
			op = UnNot
		}
		// Fold -literal into a constant for readability of normalized IR.
		if c, ok := e.(*Const); ok && op == UnNeg && c.Val.Kind != vector.Bool {
			v := c.Val
			if v.Kind == vector.F64 {
				v.F = -v.F
			} else {
				v.I = -v.I
			}
			return &Const{base: base{t.pos}, Val: v}, nil
		}
		return &Un{base: base{t.pos}, Op: op, E: e}, nil
	}
	return p.parseSkeletonOrAtom()
}

// parseSkeletonOrAtom parses keyword-led skeleton applications and plain
// atoms.
func (p *parser) parseSkeletonOrAtom() (Expr, error) {
	t := p.cur()
	if t.kind == tokKeyword {
		switch t.text {
		case "read":
			p.pos++
			pos, err := p.parseAtom()
			if err != nil {
				return nil, err
			}
			data, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			var count Expr
			if p.atAtomStart() && p.contiguous() {
				count, err = p.parseAtom()
				if err != nil {
					return nil, err
				}
			}
			return &ReadExpr{base: base{t.pos}, At: pos, Data: data.text, Count: count}, nil

		case "map":
			p.pos++
			fn, err := p.parseLambdaAtom()
			if err != nil {
				return nil, err
			}
			var args []Expr
			for p.atAtomStart() && p.contiguous() {
				a, err := p.parseAtom()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
			}
			if len(args) == 0 {
				return nil, p.errAt(t.pos, "map needs at least one argument")
			}
			return &MapExpr{base: base{t.pos}, Fn: fn, Args: args}, nil

		case "filter":
			p.pos++
			fn, err := p.parseLambdaAtom()
			if err != nil {
				return nil, err
			}
			arg, err := p.parseAtom()
			if err != nil {
				return nil, err
			}
			return &FilterExpr{base: base{t.pos}, Pred: fn, Arg: arg}, nil

		case "fold":
			p.pos++
			fn, err := p.parseLambdaAtom()
			if err != nil {
				return nil, err
			}
			init, err := p.parseAtom()
			if err != nil {
				return nil, err
			}
			arg, err := p.parseAtom()
			if err != nil {
				return nil, err
			}
			return &FoldExpr{base: base{t.pos}, Fn: fn, Init: init, Arg: arg}, nil

		case "gather":
			p.pos++
			data, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			idx, err := p.parseAtom()
			if err != nil {
				return nil, err
			}
			return &GatherExpr{base: base{t.pos}, Data: data.text, Idx: idx}, nil

		case "gen":
			p.pos++
			fn, err := p.parseLambdaAtom()
			if err != nil {
				return nil, err
			}
			count, err := p.parseAtom()
			if err != nil {
				return nil, err
			}
			return &GenExpr{base: base{t.pos}, Fn: fn, Count: count}, nil

		case "condense":
			p.pos++
			arg, err := p.parseAtom()
			if err != nil {
				return nil, err
			}
			return &CondenseExpr{base: base{t.pos}, E: arg}, nil

		case "merge":
			p.pos++
			kindTok, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			var mk MergeKind
			switch kindTok.text {
			case "join":
				mk = MergeJoin
			case "union":
				mk = MergeUnion
			case "diff":
				mk = MergeDiff
			case "intersect":
				mk = MergeIntersect
			default:
				return nil, p.errAt(kindTok.pos, "unknown merge kind %q (want join/union/diff/intersect)", kindTok.text)
			}
			l, err := p.parseAtom()
			if err != nil {
				return nil, err
			}
			r, err := p.parseAtom()
			if err != nil {
				return nil, err
			}
			return &MergeExpr{base: base{t.pos}, Kind: mk, L: l, R: r}, nil

		case "len":
			p.pos++
			if _, err := p.expect(tokOp, "("); err != nil {
				return nil, err
			}
			e, err := p.parseExpr(0)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
			return &LenExpr{base: base{t.pos}, E: e}, nil

		case "cast":
			p.pos++
			if _, err := p.expect(tokOp, "<"); err != nil {
				return nil, err
			}
			kindTok, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			kind, err := vector.ParseKind(kindTok.text)
			if err != nil {
				return nil, p.errAt(kindTok.pos, "%v", err)
			}
			if _, err := p.expect(tokOp, ">"); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokOp, "("); err != nil {
				return nil, err
			}
			e, err := p.parseExpr(0)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
			return &CastExpr{base: base{t.pos}, To: kind, E: e}, nil

		case "min", "max":
			p.pos++
			if _, err := p.expect(tokOp, "("); err != nil {
				return nil, err
			}
			l, err := p.parseExpr(0)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokOp, ","); err != nil {
				return nil, err
			}
			r, err := p.parseExpr(0)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
			op := OpMin
			if t.text == "max" {
				op = OpMax
			}
			return &Bin{base: base{t.pos}, Op: op, L: l, R: r}, nil

		case "abs", "sqrt":
			p.pos++
			if _, err := p.expect(tokOp, "("); err != nil {
				return nil, err
			}
			e, err := p.parseExpr(0)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
			op := UnAbs
			if t.text == "sqrt" {
				op = UnSqrt
			}
			return &Un{base: base{t.pos}, Op: op, E: e}, nil

		case "true", "false":
			p.pos++
			return &Const{base: base{t.pos}, Val: vector.BoolValue(t.text == "true")}, nil
		}
		return nil, p.errAt(t.pos, "unexpected keyword %q in expression", t.text)
	}
	return p.parseAtomOpts(true)
}

// atAtomStart reports whether the current token can begin an atom, used for
// the variable-arity skeleton argument lists.
func (p *parser) atAtomStart() bool {
	t := p.cur()
	switch t.kind {
	case tokIdent, tokInt, tokFloat, tokString:
		return true
	case tokOp:
		return t.text == "(" || t.text == "\\"
	case tokKeyword:
		return t.text == "true" || t.text == "false"
	}
	return false
}

// parseLambdaAtom parses a lambda, possibly parenthesized, or a function
// name reference (which resolves against fn definitions at check time).
func (p *parser) parseLambdaAtom() (*Lambda, error) {
	t := p.cur()
	if t.kind == tokIdent {
		// Named function used as skeleton argument: map double xs.
		p.pos++
		return &Lambda{base: base{t.pos}, Params: nil, Body: &CallExpr{base: base{t.pos}, Name: t.text}}, nil
	}
	paren := false
	if p.at(tokOp, "(") {
		paren = true
		p.pos++
	}
	lam, err := p.parseLambda()
	if err != nil {
		return nil, err
	}
	if paren {
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
	}
	return lam, nil
}

func (p *parser) parseLambda() (*Lambda, error) {
	start := p.cur().pos
	if _, err := p.expect(tokOp, "\\"); err != nil {
		return nil, err
	}
	var params []string
	for p.at(tokIdent, "") {
		params = append(params, p.cur().text)
		p.pos++
	}
	if len(params) == 0 {
		return nil, p.errAt(start, "lambda needs at least one parameter")
	}
	if _, err := p.expect(tokOp, "->"); err != nil {
		return nil, err
	}
	body, err := p.parseExpr(0)
	if err != nil {
		return nil, err
	}
	return &Lambda{base: base{start}, Params: params, Body: body}, nil
}

// parseAtom parses an argument-position atom: identifiers followed by "("
// are calls only for known fn names (resolving the juxtaposition ambiguity
// in skeleton argument lists such as "write o i (map ...)").
func (p *parser) parseAtom() (Expr, error) { return p.parseAtomOpts(false) }

func (p *parser) parseAtomOpts(callJuxt bool) (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokOp && t.text == "-" &&
		(p.peek().kind == tokInt || p.peek().kind == tokFloat):
		// Negative numeric literal in atom position (e.g. fold init -1).
		p.pos++
		e, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		c := e.(*Const)
		v := c.Val
		if v.Kind == vector.F64 {
			v.F = -v.F
		} else {
			v.I = -v.I
		}
		return &Const{base: base{t.pos}, Val: v}, nil

	case t.kind == tokInt:
		p.pos++
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errAt(t.pos, "bad integer literal: %v", err)
		}
		return &Const{base: base{t.pos}, Val: vector.I64Value(i)}, nil

	case t.kind == tokFloat:
		p.pos++
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errAt(t.pos, "bad float literal: %v", err)
		}
		return &Const{base: base{t.pos}, Val: vector.F64Value(f)}, nil

	case t.kind == tokString:
		p.pos++
		return &Const{base: base{t.pos}, Val: vector.StrValue(t.text)}, nil

	case t.kind == tokKeyword && (t.text == "true" || t.text == "false"):
		p.pos++
		return &Const{base: base{t.pos}, Val: vector.BoolValue(t.text == "true")}, nil

	case t.kind == tokIdent:
		p.pos++
		if p.at(tokOp, "(") && p.contiguous() && (callJuxt || p.funcs[t.text]) {
			// user function call f(a, b)
			p.pos++
			var args []Expr
			for !p.at(tokOp, ")") {
				a, err := p.parseExpr(0)
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if !p.eat(tokOp, ",") {
					break
				}
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
			return &CallExpr{base: base{t.pos}, Name: t.text, Args: args}, nil
		}
		return &VarRef{base: base{t.pos}, Name: t.text}, nil

	case t.kind == tokOp && t.text == "(":
		p.pos++
		if p.at(tokOp, "\\") {
			lam, err := p.parseLambda()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
			return lam, nil
		}
		e, err := p.parseExpr(0)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return e, nil

	case t.kind == tokOp && t.text == "\\":
		return p.parseLambda()

	case t.kind == tokKeyword:
		// Skeletons in atom position (e.g. nested: condense (filter ...)).
		return p.parseSkeletonOrAtom()
	}
	return nil, p.errAt(t.pos, "unexpected token %s", t)
}
