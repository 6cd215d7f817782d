package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"neurdb/internal/rel"
)

// Parser is a recursive-descent SQL parser.
type Parser struct {
	toks      []Token
	pos       int
	qmarks    int  // '?' placeholders seen so far (they number left to right)
	sawDollar bool // '$n' placeholder seen (styles must not mix)
}

// Parse parses a single SQL statement (an optional trailing semicolon is
// allowed).
func Parse(src string) (Stmt, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	stmt, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	p.accept(";")
	if !p.atEOF() {
		return nil, fmt.Errorf("sql: trailing input at %q", p.peek().Text)
	}
	return stmt, nil
}

func (p *Parser) peek() Token { return p.toks[p.pos] }

func (p *Parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *Parser) atEOF() bool { return p.peek().Kind == TokEOF }

// accept consumes the next token if it matches the keyword or punctuation.
func (p *Parser) accept(s string) bool {
	t := p.peek()
	if t.Kind == TokPunct && t.Text == s {
		p.pos++
		return true
	}
	if t.keyword(s) {
		p.pos++
		return true
	}
	return false
}

// expect consumes a required keyword/punctuation.
func (p *Parser) expect(s string) error {
	if p.accept(s) {
		return nil
	}
	return fmt.Errorf("sql: expected %q, got %q at offset %d", s, p.peek().Text, p.peek().Pos)
}

func (p *Parser) ident() (string, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		return "", fmt.Errorf("sql: expected identifier, got %q at offset %d", t.Text, t.Pos)
	}
	p.pos++
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
		if err := p.expect("="); err != nil {
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
		if err := p.expect("("); err != nil {
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
			if p.accept(",") {
				continue
			}
			if err := p.expect(")"); err != nil {
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
		if err := p.expect("("); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
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
	if p.accept("(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Cols = append(ins.Cols, col)
			if p.accept(",") {
				continue
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			break
		}
	}
	if err := p.expect("VALUES"); err != nil {
		return nil, err
	}
	for {
		row, err := p.parseExprTuple()
		if err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.accept(",") {
			break
		}
	}
	return ins, nil
}

func (p *Parser) parseExprTuple() ([]Expr, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var out []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		if p.accept(",") {
			continue
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return out, nil
	}
}

func (p *Parser) parseSelect() (Stmt, error) {
	p.next() // SELECT
	sel := &Select{Limit: -1}
	for {
		if p.accept("*") {
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
		if !p.accept(",") {
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
		if !p.accept(",") {
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
			if !p.accept(",") {
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
			if !p.accept(",") {
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
		if err := p.expect("="); err != nil {
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
		if !p.accept(",") {
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
	if p.accept("*") {
		pr.TrainAll = true
	} else {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			pr.TrainCols = append(pr.TrainCols, col)
			if !p.accept(",") {
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
			row, err := p.parseExprTuple()
			if err != nil {
				return nil, err
			}
			pr.Values = append(pr.Values, row)
			if !p.accept(",") {
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
		if err := p.expect("("); err != nil {
			return nil, err
		}
		var vals []rel.Value
		for {
			lit, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			vals = append(vals, lit)
			if p.accept(",") {
				continue
			}
			if err := p.expect(")"); err != nil {
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
		if t.Kind == TokPunct && (t.Text == "+" || t.Text == "-") {
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
		if t.Kind == TokPunct && (t.Text == "*" || t.Text == "/" || t.Text == "%") {
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
	if t := p.peek(); t.Kind == TokPunct && t.Text == "-" {
		p.next()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := e.(*Lit); ok {
			switch lit.Val.Type() {
			case rel.TypeInt:
				return &Lit{Val: rel.Int(-lit.Val.AsInt())}, nil
			case rel.TypeFloat:
				return &Lit{Val: rel.Float(-lit.Val.AsFloat())}, nil
			default:
				// Non-numeric: keep the Unary node; eval rejects it.
			}
		}
		return &Unary{Op: "-", E: e}, nil
	}
	return p.parsePrimary()
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
		return &Lit{Val: v}, nil
	case TokString:
		p.next()
		return &Lit{Val: rel.Text(t.Text)}, nil
	case TokIdent:
		switch strings.ToUpper(t.Text) {
		case "NULL":
			p.next()
			return &Lit{Val: rel.Null()}, nil
		case "TRUE":
			p.next()
			return &Lit{Val: rel.Bool(true)}, nil
		case "FALSE":
			p.next()
			return &Lit{Val: rel.Bool(false)}, nil
		}
		name, _ := p.ident()
		// Function call?
		if p.peek().Kind == TokPunct && p.peek().Text == "(" {
			p.next()
			fc := &FuncCall{Name: strings.ToUpper(name)}
			if p.accept("*") {
				fc.Star = true
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				return fc, nil
			}
			if p.accept(")") {
				return fc, nil
			}
			for {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				fc.Args = append(fc.Args, arg)
				if p.accept(",") {
					continue
				}
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				break
			}
			return fc, nil
		}
		// Qualified column?
		if p.peek().Kind == TokPunct && p.peek().Text == "." {
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
			if err := p.expect(")"); err != nil {
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
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return rel.Value{}, fmt.Errorf("sql: bad number %q: %w", t.Text, err)
			}
			return rel.Float(f), nil
		}
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(t.Text, 64)
			if ferr != nil {
				return rel.Value{}, fmt.Errorf("sql: bad number %q: %w", t.Text, err)
			}
			return rel.Float(f), nil
		}
		return rel.Int(i), nil
	case TokString:
		p.next()
		return rel.Text(t.Text), nil
	case TokPunct:
		if t.Text == "-" {
			p.next()
			v, err := p.parseLiteral()
			if err != nil {
				return rel.Value{}, err
			}
			switch v.Type() {
			case rel.TypeInt:
				return rel.Int(-v.AsInt()), nil
			case rel.TypeFloat:
				return rel.Float(-v.AsFloat()), nil
			default:
				// Non-numeric: fall through to the error below.
			}
			return rel.Value{}, fmt.Errorf("sql: cannot negate %v", v)
		}
	case TokIdent:
		switch strings.ToUpper(t.Text) {
		case "NULL":
			p.next()
			return rel.Null(), nil
		case "TRUE":
			p.next()
			return rel.Bool(true), nil
		case "FALSE":
			p.next()
			return rel.Bool(false), nil
		}
	}
	return rel.Value{}, fmt.Errorf("sql: expected literal, got %q at offset %d", t.Text, t.Pos)
}
