package sqlparse

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"neurdb/internal/rel"
)

// Parser is a recursive-descent SQL parser. It pulls tokens from its lexer
// with one token of lookahead.
type Parser struct {
	lex       Lexer
	tok       Token       // the lookahead token
	lexErr    error       // the lexer's error; tok is then EOF
	qmarks    int         // '?' placeholders seen so far (they number left to right)
	sawDollar bool        // '$n' placeholder seen (styles must not mix)
	lits      []Lit       // slab the statement's literals are carved from
	rowSlab   []rel.Value // slab the statement's constant rows are carved from
	vals      []rel.Value // scratch a constant tuple collects its values on
	exprs     []Expr      // scratch stack tuples collect their elements on
}

// Parse parses a single SQL statement (an optional trailing semicolon is
// allowed). A lexing error anywhere in src is reported before any syntax
// error.
func Parse(src string) (Stmt, error) {
	p := &Parser{lex: Lexer{src: src}}
	p.advance()
	stmt, err := p.parseStmt()
	if err == nil {
		p.acceptPunct(';')
		if !p.atEOF() {
			err = fmt.Errorf("sql: trailing input at %q", p.peek().Text)
		}
	}
	if err != nil && p.lexErr == nil {
		// Lex on: a lexing error after the syntax error wins.
		for p.tok.Kind != TokEOF {
			p.advance()
		}
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	if err != nil {
		return nil, err
	}
	return stmt, nil
}

// advance reads the next token into the lookahead. After a lexing error the
// lookahead stays at EOF, so parsing stops.
func (p *Parser) advance() {
	t, err := p.lex.Next()
	if err != nil {
		p.lexErr = err
		t = Token{Kind: TokEOF, Pos: len(p.lex.src)}
	}
	p.tok = t
}

func (p *Parser) peek() Token { return p.tok }

func (p *Parser) next() Token {
	t := p.tok
	if t.Kind != TokEOF {
		p.advance()
	}
	return t
}

func (p *Parser) atEOF() bool { return p.tok.Kind == TokEOF }

// accept consumes the next token if it is the keyword kw.
func (p *Parser) accept(kw string) bool {
	if p.tok.keyword(kw) {
		p.advance()
		return true
	}
	return false
}

// acceptPunct consumes the next token if it is the one-byte punctuation c.
func (p *Parser) acceptPunct(c byte) bool {
	if p.tok.Punct == c {
		p.advance()
		return true
	}
	return false
}

// lit returns a literal carved from the statement's slab. The slab's chunks
// double from 2 to 1,024 literals, so a short statement allocates little and
// a bulk INSERT one chunk per 1,024 literals.
func (p *Parser) lit(v rel.Value) *Lit {
	if len(p.lits) == cap(p.lits) {
		p.lits = make([]Lit, 0, min(max(2*cap(p.lits), 2), 1024))
	}
	p.lits = append(p.lits, Lit{Val: v})
	return &p.lits[len(p.lits)-1]
}

// rowChunk is the most values one row slab chunk holds: 4 KB.
const rowChunk = 256

// row returns vals as a row carved from the statement's row slab, its
// capacity capped at its length. Chunks double from 8 to rowChunk values, so
// a short statement allocates little, one live row pins at most one chunk,
// and a row longer than a chunk gets its own.
func (p *Parser) row(vals []rel.Value) rel.Row {
	n := len(vals)
	if cap(p.rowSlab)-len(p.rowSlab) < n {
		p.rowSlab = make([]rel.Value, 0, max(min(max(2*cap(p.rowSlab), 8), rowChunk), n))
	}
	k := len(p.rowSlab)
	p.rowSlab = append(p.rowSlab, vals...)
	return p.rowSlab[k : k+n : k+n]
}

// expect consumes a required keyword/punctuation.
func (p *Parser) expect(kw string) error {
	if p.accept(kw) {
		return nil
	}
	return p.expected(kw)
}

func (p *Parser) expectPunct(c byte) error {
	if p.acceptPunct(c) {
		return nil
	}
	return p.expected(string(c))
}

func (p *Parser) expected(s string) error {
	return fmt.Errorf("sql: expected %q, got %q at offset %d", s, p.peek().Text, p.peek().Pos)
}

func (p *Parser) ident() (string, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		return "", fmt.Errorf("sql: expected identifier, got %q at offset %d", t.Text, t.Pos)
	}
	p.advance()
	return t.Text, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	// Placeholder numbering and style tracking are per statement (the
	// parser is reused across a script).
	p.qmarks, p.sawDollar = 0, false
	t := p.peek()
	switch {
	case t.keyword("CREATE"):
		return p.parseCreate()
	case t.keyword("DROP"):
		return p.parseDrop()
	case t.keyword("INSERT"):
		return p.parseInsert()
	case t.keyword("SELECT"):
		return p.parseSelect()
	case t.keyword("UPDATE"):
		return p.parseUpdate()
	case t.keyword("DELETE"):
		return p.parseDelete()
	case t.keyword("BEGIN") || t.keyword("START"):
		p.next()
		p.accept("TRANSACTION")
		return &TxnStmt{Kind: "BEGIN"}, nil
	case t.keyword("COMMIT"):
		p.next()
		return &TxnStmt{Kind: "COMMIT"}, nil
	case t.keyword("ROLLBACK") || t.keyword("ABORT"):
		p.next()
		return &TxnStmt{Kind: "ROLLBACK"}, nil
	case t.keyword("ANALYZE"):
		p.next()
		if p.peek().Kind == TokIdent {
			name, _ := p.ident()
			return &Analyze{Table: name}, nil
		}
		return &Analyze{}, nil
	case t.keyword("EXPLAIN"):
		p.next()
		pos := p.peek().Pos
		inner, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &Explain{Inner: inner, InnerPos: pos}, nil
	case t.keyword("SET"):
		p.next()
		key, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct('='); err != nil {
			return nil, err
		}
		vt := p.next()
		if vt.Kind != TokIdent && vt.Kind != TokString && vt.Kind != TokNumber {
			return nil, fmt.Errorf("sql: bad SET value %q", vt.Text)
		}
		return &SetStmt{Key: strings.ToLower(key), Value: vt.Text}, nil
	case t.keyword("PREDICT"):
		return p.parsePredict()
	default:
		return nil, fmt.Errorf("sql: unexpected statement start %q at offset %d", t.Text, t.Pos)
	}
}

func (p *Parser) parseCreate() (Stmt, error) {
	p.next() // CREATE
	switch {
	case p.accept("TABLE"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct('('); err != nil {
			return nil, err
		}
		ct := &CreateTable{Name: name}
		for {
			colName, err := p.ident()
			if err != nil {
				return nil, err
			}
			typName, err := p.ident()
			if err != nil {
				return nil, err
			}
			typ, err := parseType(typName)
			if err != nil {
				return nil, err
			}
			def := ColumnDef{Name: colName, Typ: typ}
			for {
				switch {
				case p.accept("PRIMARY"):
					if err := p.expect("KEY"); err != nil {
						return nil, err
					}
					def.Unique, def.NotNull = true, true
				case p.accept("UNIQUE"):
					def.Unique = true
				case p.accept("NOT"):
					if err := p.expect("NULL"); err != nil {
						return nil, err
					}
					def.NotNull = true
				default:
					goto colDone
				}
			}
		colDone:
			ct.Cols = append(ct.Cols, def)
			if p.acceptPunct(',') {
				continue
			}
			if err := p.expectPunct(')'); err != nil {
				return nil, err
			}
			break
		}
		return ct, nil
	case p.accept("INDEX"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect("ON"); err != nil {
			return nil, err
		}
		table, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct('('); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(')'); err != nil {
			return nil, err
		}
		if p.accept("USING") {
			method, err := p.ident()
			if err != nil {
				return nil, err
			}
			if !strings.EqualFold(method, "BTREE") {
				return nil, fmt.Errorf("sql: index method %q is not supported: indexes are B-trees (USING BTREE)", method)
			}
		}
		return &CreateIndex{Name: name, Table: table, Col: col}, nil
	default:
		return nil, fmt.Errorf("sql: CREATE must be followed by TABLE or INDEX")
	}
}

func (p *Parser) parseDrop() (Stmt, error) {
	p.next() // DROP
	if err := p.expect("TABLE"); err != nil {
		return nil, err
	}
	d := &DropTable{}
	if p.accept("IF") {
		if err := p.expect("EXISTS"); err != nil {
			return nil, err
		}
		d.IfExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	d.Name = name
	return d, nil
}

func parseType(name string) (rel.Type, error) {
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return rel.TypeInt, nil
	case "FLOAT", "DOUBLE", "REAL", "DECIMAL", "NUMERIC":
		return rel.TypeFloat, nil
	case "TEXT", "VARCHAR", "CHAR", "STRING":
		return rel.TypeText, nil
	case "BOOL", "BOOLEAN":
		return rel.TypeBool, nil
	default:
		return 0, fmt.Errorf("sql: unknown type %q", name)
	}
}

func (p *Parser) parseInsert() (Stmt, error) {
	p.next() // INSERT
	if err := p.expect("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if p.acceptPunct('(') {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Cols = append(ins.Cols, col)
			if p.acceptPunct(',') {
				continue
			}
			if err := p.expectPunct(')'); err != nil {
				return nil, err
			}
			break
		}
	}
	if err := p.expect("VALUES"); err != nil {
		return nil, err
	}
	// Every tuple opens with a '(', so their count bounds the tuples left;
	// a '(' inside a string or an expression only makes the hint high.
	ins.Rows = make([]rel.Row, 0, min(strings.Count(p.lex.src[p.lex.pos:], "(")+1, maxRowsHint))
	for {
		row, exprs, err := p.parseTuple()
		if err != nil {
			return nil, err
		}
		if exprs != nil && ins.Exprs == nil {
			ins.Exprs = make([][]Expr, len(ins.Rows), cap(ins.Rows))
		}
		ins.Rows = append(ins.Rows, row)
		if ins.Exprs != nil {
			ins.Exprs = append(ins.Exprs, exprs)
		}
		if !p.acceptPunct(',') {
			break
		}
	}
	return ins, nil
}

// maxRowsHint caps the capacity an INSERT's rows are first given.
const maxRowsHint = 1 << 16

// parseTuple parses a parenthesized VALUES tuple. A tuple whose elements
// are all literals comes back as a row carved from the statement's row slab,
// with nil exprs; any other tuple comes back as its expressions.
func (p *Parser) parseTuple() (rel.Row, []Expr, error) {
	if err := p.expectPunct('('); err != nil {
		return nil, nil, err
	}
	// The elements collect on the scratch stacks, values while the tuple is
	// constant and expressions after, and the tuple is sized once they are
	// all known.
	vmark, emark := len(p.vals), len(p.exprs)
	constant := true
	for {
		v, e, err := p.parseElement()
		if err != nil {
			return nil, nil, err
		}
		if lit, ok := e.(*Lit); ok {
			v, e = lit.Val, nil
		}
		if constant && e != nil {
			constant = false
			for _, v := range p.vals[vmark:] {
				p.exprs = append(p.exprs, p.lit(v))
			}
			p.vals = p.vals[:vmark]
		}
		switch {
		case constant:
			p.vals = append(p.vals, v)
		case e == nil:
			p.exprs = append(p.exprs, p.lit(v))
		default:
			p.exprs = append(p.exprs, e)
		}
		if p.acceptPunct(',') {
			continue
		}
		if err := p.expectPunct(')'); err != nil {
			return nil, nil, err
		}
		if constant {
			row := p.row(p.vals[vmark:])
			p.vals = p.vals[:vmark]
			return row, nil, nil
		}
		out := slices.Clone(p.exprs[emark:])
		p.exprs = p.exprs[:emark]
		return nil, out, nil
	}
}

// parseElement parses one tuple element: a literal's value, or an
// expression. A number or string token followed by ',' or ')' is a whole
// element, so its value is taken without walking the expression grammar;
// anything else resumes through parseExpr from the saved lexer and
// lookahead. parseExpr may still return a *Lit (-5, NULL, (1)).
func (p *Parser) parseElement() (rel.Value, Expr, error) {
	t := p.tok
	if t.Kind != TokNumber && t.Kind != TokString {
		e, err := p.parseExpr()
		return rel.Value{}, e, err
	}
	lex := p.lex
	p.advance()
	if n := p.tok.Punct; n == ',' || n == ')' {
		if t.Kind == TokString {
			return rel.Text(t.Text), nil, nil
		}
		v, err := number(t.Text)
		return v, nil, err
	}
	p.lex, p.tok, p.lexErr = lex, t, nil
	e, err := p.parseExpr()
	return rel.Value{}, e, err
}

func (p *Parser) parseSelect() (Stmt, error) {
	p.next() // SELECT
	sel := &Select{Limit: -1}
	for {
		if p.acceptPunct('*') {
			sel.Items = append(sel.Items, SelectItem{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{E: e}
			if p.accept("AS") {
				alias, err := p.ident()
				if err != nil {
					return nil, err
				}
				item.Alias = alias
			} else if p.peek().Kind == TokIdent && !isClauseKeyword(p.peek().Text) {
				alias, _ := p.ident()
				item.Alias = alias
			}
			sel.Items = append(sel.Items, item)
		}
		if !p.acceptPunct(',') {
			break
		}
	}
	if err := p.expect("FROM"); err != nil {
		return nil, err
	}
	for {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		sel.From = append(sel.From, ref)
		if !p.acceptPunct(',') {
			break
		}
	}
	for {
		inner := p.accept("INNER")
		if !p.accept("JOIN") {
			if inner {
				return nil, fmt.Errorf("sql: INNER must be followed by JOIN")
			}
			break
		}
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expect("ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Joins = append(sel.Joins, JoinClause{Table: ref, On: on})
	}
	if p.accept("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.accept("GROUP") {
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.acceptPunct(',') {
				break
			}
		}
	}
	if p.accept("ORDER") {
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{E: e}
			if p.accept("DESC") {
				item.Desc = true
			} else {
				p.accept("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.acceptPunct(',') {
				break
			}
		}
	}
	if p.accept("LIMIT") {
		t := p.next()
		if t.Kind != TokNumber {
			return nil, fmt.Errorf("sql: LIMIT expects a number, got %q", t.Text)
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: bad LIMIT: %w", err)
		}
		sel.Limit = n
	}
	return sel, nil
}

func isClauseKeyword(s string) bool {
	switch strings.ToUpper(s) {
	case "FROM", "WHERE", "GROUP", "ORDER", "LIMIT", "JOIN", "INNER", "ON", "AS",
		"TRAIN", "WITH", "VALUES", "SET", "AND", "OR", "NOT", "IS", "IN", "DESC", "ASC",
		"SELECT", "INSERT", "UPDATE", "DELETE", "CREATE", "DROP", "PREDICT",
		"EXPLAIN", "ANALYZE", "BEGIN", "COMMIT", "ROLLBACK", "ABORT", "USING", "BETWEEN":
		return true
	}
	return false
}

func (p *Parser) parseTableRef() (TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: name}
	if p.accept("AS") {
		alias, err := p.ident()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias
	} else if p.peek().Kind == TokIdent && !isClauseKeyword(p.peek().Text) {
		alias, _ := p.ident()
		ref.Alias = alias
	}
	return ref, nil
}

func (p *Parser) parseUpdate() (Stmt, error) {
	p.next() // UPDATE
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("SET"); err != nil {
		return nil, err
	}
	up := &Update{Table: table, Set: map[string]Expr{}}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct('='); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, dup := up.Set[strings.ToLower(col)]; dup {
			return nil, fmt.Errorf("sql: duplicate SET column %q", col)
		}
		up.Set[strings.ToLower(col)] = e
		up.Cols = append(up.Cols, strings.ToLower(col))
		if !p.acceptPunct(',') {
			break
		}
	}
	if p.accept("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Where = w
	}
	return up, nil
}

func (p *Parser) parseDelete() (Stmt, error) {
	p.next() // DELETE
	if err := p.expect("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	d := &Delete{Table: table}
	if p.accept("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Where = w
	}
	return d, nil
}

// parsePredict parses the paper's AI-analytics statement.
func (p *Parser) parsePredict() (Stmt, error) {
	p.next() // PREDICT
	pr := &Predict{}
	switch {
	case p.accept("VALUE"):
		pr.Kind = PredictValue
	case p.accept("CLASS"):
		pr.Kind = PredictClass
	default:
		return nil, fmt.Errorf("sql: PREDICT must be followed by VALUE or CLASS")
	}
	if err := p.expect("OF"); err != nil {
		return nil, err
	}
	target, err := p.ident()
	if err != nil {
		return nil, err
	}
	pr.Target = target
	if err := p.expect("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	pr.Table = table
	if p.accept("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		pr.Where = w
	}
	if err := p.expect("TRAIN"); err != nil {
		return nil, err
	}
	if err := p.expect("ON"); err != nil {
		return nil, err
	}
	if p.acceptPunct('*') {
		pr.TrainAll = true
	} else {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			pr.TrainCols = append(pr.TrainCols, col)
			if !p.acceptPunct(',') {
				break
			}
		}
	}
	if p.accept("WITH") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		pr.With = w
	}
	if p.accept("VALUES") {
		for {
			row, exprs, err := p.parseTuple()
			if err != nil {
				return nil, err
			}
			if row != nil {
				exprs = make([]Expr, len(row))
				for i, v := range row {
					exprs[i] = p.lit(v)
				}
			}
			pr.Values = append(pr.Values, exprs)
			if !p.acceptPunct(',') {
				break
			}
		}
	}
	return pr, nil
}

// --- expressions ---

func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.accept("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", E: e}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Kind == TokPunct {
		switch t.Text {
		case "=", "==", "<>", "!=", "<", "<=", ">", ">=":
			p.next()
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			op := t.Text
			if op == "==" {
				op = "="
			}
			if op == "!=" {
				op = "<>"
			}
			return &Binary{Op: op, L: l, R: r}, nil
		}
	}
	if t.keyword("IS") {
		p.next()
		negate := p.accept("NOT")
		if err := p.expect("NULL"); err != nil {
			return nil, err
		}
		return &IsNull{E: l, Negate: negate}, nil
	}
	if t.keyword("IN") {
		p.next()
		if err := p.expectPunct('('); err != nil {
			return nil, err
		}
		var vals []rel.Value
		for {
			lit, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			vals = append(vals, lit)
			if p.acceptPunct(',') {
				continue
			}
			if err := p.expectPunct(')'); err != nil {
				return nil, err
			}
			break
		}
		return &InList{E: l, Vals: vals}, nil
	}
	if t.keyword("BETWEEN") {
		p.next()
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expect("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: "AND",
			L: &Binary{Op: ">=", L: l, R: lo},
			R: &Binary{Op: "<=", L: l, R: hi},
		}, nil
	}
	return l, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Punct == '+' || t.Punct == '-' {
			p.next()
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: t.Text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Punct == '*' || t.Punct == '/' || t.Punct == '%' {
			p.next()
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: t.Text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.tok.Punct == '-' {
		p.next()
		if p.minInt64() {
			return p.lit(rel.Int(math.MinInt64)), nil
		}
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// The operand's literal is this expression's own, so it is negated
		// in place.
		if lit, ok := e.(*Lit); ok {
			if v, ok := negate(lit.Val); ok {
				lit.Val = v
				return lit, nil
			}
			// Non-numeric: keep the Unary node; eval rejects it.
		}
		return &Unary{Op: "-", E: e}, nil
	}
	return p.parsePrimary()
}

// minInt64 consumes the number token after a '-' if it is 2^63, whose
// negation is the least INT although 2^63 alone is out of INT's range.
func (p *Parser) minInt64() bool {
	t := p.peek()
	if t.Kind != TokNumber {
		return false
	}
	if u, err := strconv.ParseUint(t.Text, 10, 64); err != nil || u != 1<<63 {
		return false
	}
	p.next()
	return true
}

// negate returns -v for a numeric v. -MinInt64 is out of INT's range, so it
// is the DOUBLE 2^63, as the literal 9223372036854775808 is.
func negate(v rel.Value) (rel.Value, bool) {
	switch v.Type() {
	case rel.TypeInt:
		if v.AsInt() == math.MinInt64 {
			return rel.Float(-float64(math.MinInt64)), true
		}
		return rel.Int(-v.AsInt()), true
	case rel.TypeFloat:
		return rel.Float(-v.AsFloat()), true
	default:
		return v, false
	}
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokParam:
		p.next()
		if t.Text == "" { // '?': positional, numbered left to right
			if p.sawDollar {
				return nil, fmt.Errorf("sql: cannot mix '?' and '$n' placeholders (offset %d)", t.Pos)
			}
			idx := p.qmarks
			p.qmarks++
			return &Param{Idx: idx}, nil
		}
		if p.qmarks > 0 {
			return nil, fmt.Errorf("sql: cannot mix '?' and '$n' placeholders (offset %d)", t.Pos)
		}
		p.sawDollar = true
		n, err := strconv.Atoi(t.Text)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("sql: bad parameter number $%s at offset %d", t.Text, t.Pos)
		}
		return &Param{Idx: n - 1}, nil
	case TokNumber:
		v, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return p.lit(v), nil
	case TokString:
		p.next()
		return p.lit(rel.Text(t.Text)), nil
	case TokIdent:
		switch {
		case t.keyword("NULL"):
			p.next()
			return p.lit(rel.Null()), nil
		case t.keyword("TRUE"):
			p.next()
			return p.lit(rel.Bool(true)), nil
		case t.keyword("FALSE"):
			p.next()
			return p.lit(rel.Bool(false)), nil
		}
		name, _ := p.ident()
		// Function call?
		if p.tok.Punct == '(' {
			p.next()
			fc := &FuncCall{Name: strings.ToUpper(name)}
			if p.acceptPunct('*') {
				fc.Star = true
				if err := p.expectPunct(')'); err != nil {
					return nil, err
				}
				return fc, nil
			}
			if p.acceptPunct(')') {
				return fc, nil
			}
			for {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				fc.Args = append(fc.Args, arg)
				if p.acceptPunct(',') {
					continue
				}
				if err := p.expectPunct(')'); err != nil {
					return nil, err
				}
				break
			}
			return fc, nil
		}
		// Qualified column?
		if p.tok.Punct == '.' {
			p.next()
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColName{Table: strings.ToLower(name), Name: strings.ToLower(col)}, nil
		}
		return &ColName{Name: strings.ToLower(name)}, nil
	case TokPunct:
		if t.Text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(')'); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("sql: unexpected token %q at offset %d", t.Text, t.Pos)
}

// parseLiteral parses a literal value token (number or string), used where
// only constants are allowed (IN lists).
func (p *Parser) parseLiteral() (rel.Value, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.next()
		return number(t.Text)
	case TokString:
		p.next()
		return rel.Text(t.Text), nil
	case TokPunct:
		if t.Text == "-" {
			p.next()
			if p.minInt64() {
				return rel.Int(math.MinInt64), nil
			}
			v, err := p.parseLiteral()
			if err != nil {
				return rel.Value{}, err
			}
			if neg, ok := negate(v); ok {
				return neg, nil
			}
			return rel.Value{}, fmt.Errorf("sql: cannot negate %v", v)
		}
	case TokIdent:
		switch {
		case t.keyword("NULL"):
			p.next()
			return rel.Null(), nil
		case t.keyword("TRUE"):
			p.next()
			return rel.Bool(true), nil
		case t.keyword("FALSE"):
			p.next()
			return rel.Bool(false), nil
		}
	}
	return rel.Value{}, fmt.Errorf("sql: expected literal, got %q at offset %d", t.Text, t.Pos)
}

// number is the value of a number token: an INT when it has neither a '.'
// nor an exponent and is in INT's range, and a DOUBLE otherwise. One pass
// over the text decides which parse to try.
func number(text string) (rel.Value, error) {
	integral := true
	for i := 0; i < len(text) && integral; i++ {
		integral = text[i] != '.' && text[i] != 'e' && text[i] != 'E'
	}
	if integral {
		i, err := strconv.ParseInt(text, 10, 64)
		if err == nil {
			return rel.Int(i), nil
		}
		if f, ferr := strconv.ParseFloat(text, 64); ferr == nil {
			return rel.Float(f), nil
		}
		return rel.Value{}, fmt.Errorf("sql: bad number %q: %w", text, err)
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return rel.Value{}, fmt.Errorf("sql: bad number %q: %w", text, err)
	}
	return rel.Float(f), nil
}
