package minijs

import "fmt"

// AST node types.

// Stmt is a statement.
type Stmt interface{ stmtNode() }

// Expr is an expression.
type Expr interface{ exprNode() }

// Program is a parsed script.
type Program struct {
	Stmts []Stmt
	// Source is retained for diagnostics and size accounting.
	Source string

	run execFn // compiled top-level block (see compile.go)
}

// VarStmt declares a variable: var name = init;
type VarStmt struct {
	Name string
	Init Expr // may be nil
}

// AssignStmt assigns to an existing variable: name = x;
type AssignStmt struct {
	Name string
	X    Expr
}

// ExprStmt evaluates an expression for side effects.
type ExprStmt struct{ X Expr }

// IfStmt is if (cond) {then} else {else}.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt // may be nil
}

// ForStmt is for (init; cond; post) {body}.
type ForStmt struct {
	Init Stmt // may be nil
	Cond Expr // may be nil (infinite, bounded by op budget)
	Post Stmt // may be nil
	Body []Stmt
}

// WhileStmt is while (cond) {body}.
type WhileStmt struct {
	Cond Expr
	Body []Stmt
}

// ReturnStmt returns from the enclosing function.
type ReturnStmt struct{ X Expr } // X may be nil

func (*VarStmt) stmtNode()    {}
func (*AssignStmt) stmtNode() {}
func (*ExprStmt) stmtNode()   {}
func (*IfStmt) stmtNode()     {}
func (*ForStmt) stmtNode()    {}
func (*WhileStmt) stmtNode()  {}
func (*ReturnStmt) stmtNode() {}

// Lit is a literal value.
type Lit struct{ Val Value }

// Ident references a variable.
type Ident struct {
	Name string
}

// Member accesses X.Name (used for namespace builtins like document.write).
type Member struct {
	X    Expr
	Name string
}

// Call invokes Fn(Args...).
type Call struct {
	Fn   Expr
	Args []Expr
}

// Binary applies an infix operator.
type Binary struct {
	Op   string
	L, R Expr
}

// Unary applies a prefix operator (! or -).
type Unary struct {
	Op string
	X  Expr
}

// FuncLit is a function literal.
type FuncLit struct {
	Params []string
	Body   []Stmt
}

func (*Lit) exprNode()     {}
func (*Ident) exprNode()   {}
func (*Member) exprNode()  {}
func (*Call) exprNode()    {}
func (*Binary) exprNode()  {}
func (*Unary) exprNode()   {}
func (*FuncLit) exprNode() {}

// Parse parses a script into a Program.
func Parse(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var stmts []Stmt
	for !p.at(tokEOF, "") {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	prog := &Program{Stmts: stmts, Source: src}
	compileProgram(prog)
	return prog, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind tokKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	t := p.cur()
	return token{}, fmt.Errorf("minijs: expected %q, got %q at offset %d", text, t.text, t.pos)
}

func (p *parser) statement() (Stmt, error) {
	switch {
	case p.at(tokKeyword, "var"):
		return p.varStmt(true)
	case p.at(tokKeyword, "if"):
		return p.ifStmt()
	case p.at(tokKeyword, "for"):
		return p.forStmt()
	case p.at(tokKeyword, "while"):
		return p.whileStmt()
	case p.at(tokKeyword, "return"):
		p.next()
		var x Expr
		if !p.at(tokPunct, ";") {
			var err error
			x, err = p.expr()
			if err != nil {
				return nil, err
			}
		}
		p.accept(tokPunct, ";")
		return &ReturnStmt{X: x}, nil
	}
	return p.simpleStmt(true)
}

// simpleStmt parses an assignment or expression statement.
// consumeSemi controls whether a trailing ';' is required/consumed (it is
// not inside for-headers).
func (p *parser) simpleStmt(consumeSemi bool) (Stmt, error) {
	// Lookahead for "ident =" (but not "==").
	if p.cur().kind == tokIdent && p.toks[p.pos+1].kind == tokPunct && p.toks[p.pos+1].text == "=" {
		name := p.next().text
		p.next() // '='
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if consumeSemi {
			p.accept(tokPunct, ";")
		}
		return &AssignStmt{Name: name, X: x}, nil
	}
	x, err := p.expr()
	if err != nil {
		return nil, err
	}
	if consumeSemi {
		p.accept(tokPunct, ";")
	}
	return &ExprStmt{X: x}, nil
}

func (p *parser) varStmt(consumeSemi bool) (Stmt, error) {
	p.next() // var
	nameTok, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	var init Expr
	if p.accept(tokPunct, "=") {
		init, err = p.expr()
		if err != nil {
			return nil, err
		}
	}
	if consumeSemi {
		p.accept(tokPunct, ";")
	}
	return &VarStmt{Name: nameTok.text, Init: init}, nil
}

func (p *parser) block() ([]Stmt, error) {
	if _, err := p.expect(tokPunct, "{"); err != nil {
		return nil, err
	}
	var stmts []Stmt
	for !p.at(tokPunct, "}") {
		if p.at(tokEOF, "") {
			return nil, fmt.Errorf("minijs: unterminated block")
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	p.next() // '}'
	return stmts, nil
}

func (p *parser) ifStmt() (Stmt, error) {
	p.next() // if
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	then, err := p.block()
	if err != nil {
		return nil, err
	}
	var els []Stmt
	if p.accept(tokKeyword, "else") {
		if p.at(tokKeyword, "if") {
			nested, err := p.ifStmt()
			if err != nil {
				return nil, err
			}
			els = []Stmt{nested}
		} else {
			els, err = p.block()
			if err != nil {
				return nil, err
			}
		}
	}
	return &IfStmt{Cond: cond, Then: then, Else: els}, nil
}

func (p *parser) forStmt() (Stmt, error) {
	p.next() // for
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	var init Stmt
	var err error
	if !p.at(tokPunct, ";") {
		if p.at(tokKeyword, "var") {
			init, err = p.varStmt(false)
		} else {
			init, err = p.simpleStmt(false)
		}
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokPunct, ";"); err != nil {
		return nil, err
	}
	var cond Expr
	if !p.at(tokPunct, ";") {
		cond, err = p.expr()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokPunct, ";"); err != nil {
		return nil, err
	}
	var post Stmt
	if !p.at(tokPunct, ")") {
		post, err = p.simpleStmt(false)
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &ForStmt{Init: init, Cond: cond, Post: post, Body: body}, nil
}

func (p *parser) whileStmt() (Stmt, error) {
	p.next() // while
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Cond: cond, Body: body}, nil
}

// Expression parsing: precedence climbing.
// || < && < == != < > <= >= < + - < * / %

var binPrec = map[string]int{
	"||": 1, "&&": 2,
	"==": 3, "!=": 3,
	"<": 4, ">": 4, "<=": 4, ">=": 4,
	"+": 5, "-": 5,
	"*": 6, "/": 6, "%": 6,
}

func (p *parser) expr() (Expr, error) { return p.binary(0) }

func (p *parser) binary(minPrec int) (Expr, error) {
	left, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		prec, ok := binPrec[t.text]
		if t.kind != tokPunct || !ok || prec < minPrec {
			return left, nil
		}
		p.next()
		right, err := p.binary(prec + 1)
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: t.text, L: left, R: right}
	}
}

func (p *parser) unary() (Expr, error) {
	if p.at(tokPunct, "!") || p.at(tokPunct, "-") {
		op := p.next().text
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: op, X: x}, nil
	}
	return p.postfix()
}

func (p *parser) postfix() (Expr, error) {
	x, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokPunct, "."):
			nameTok, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			x = &Member{X: x, Name: nameTok.text}
		case p.at(tokPunct, "("):
			p.next()
			var args []Expr
			for !p.at(tokPunct, ")") {
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if !p.accept(tokPunct, ",") {
					break
				}
			}
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
			x = &Call{Fn: x, Args: args}
		default:
			return x, nil
		}
	}
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.next()
		return &Lit{Val: Number(t.num)}, nil
	case t.kind == tokString:
		p.next()
		return &Lit{Val: String(t.text)}, nil
	case t.kind == tokKeyword && t.text == "true":
		p.next()
		return &Lit{Val: Bool(true)}, nil
	case t.kind == tokKeyword && t.text == "false":
		p.next()
		return &Lit{Val: Bool(false)}, nil
	case t.kind == tokKeyword && t.text == "null":
		p.next()
		return &Lit{Val: Null()}, nil
	case t.kind == tokKeyword && t.text == "function":
		p.next()
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		var params []string
		for !p.at(tokPunct, ")") {
			nameTok, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			params = append(params, nameTok.text)
			if !p.accept(tokPunct, ",") {
				break
			}
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &FuncLit{Params: params, Body: body}, nil
	case t.kind == tokIdent:
		p.next()
		return &Ident{Name: t.text}, nil
	case t.kind == tokPunct && t.text == "(":
		p.next()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		return x, nil
	}
	return nil, fmt.Errorf("minijs: unexpected token %q at offset %d", t.text, t.pos)
}
