package sqldb

import (
	"fmt"
	"strings"
)

// AST node types.

// ColDef declares one column.
type ColDef struct {
	Name string
	Kind Kind
}

// Cond is one conjunct of a WHERE clause: column OP literal.
type Cond struct {
	Col string
	Op  string // = < > <= >= != <>
	Val Value
}

// CreateStmt is CREATE TABLE.
type CreateStmt struct {
	Table string
	Cols  []ColDef
	// PK is the primary-key column index (first column when undeclared).
	PK int
}

// InsertStmt is INSERT INTO ... VALUES.
type InsertStmt struct {
	Table string
	Cols  []string // empty: positional
	Vals  []Value
}

// SelectStmt is SELECT.
type SelectStmt struct {
	Table   string
	Cols    []string // nil: *
	Count   bool     // SELECT COUNT(*)
	Where   []Cond
	OrderBy string
	Desc    bool
	Limit   int // -1: none
}

// UpdateStmt is UPDATE ... SET.
type UpdateStmt struct {
	Table string
	Sets  []struct {
		Col string
		Val Value
	}
	Where []Cond
}

// DeleteStmt is DELETE FROM.
type DeleteStmt struct {
	Table string
	Where []Cond
}

// Stmt is any parsed statement.
type Stmt interface{ stmt() }

func (*CreateStmt) stmt() {}
func (*InsertStmt) stmt() {}
func (*SelectStmt) stmt() {}
func (*UpdateStmt) stmt() {}
func (*DeleteStmt) stmt() {}

type parser struct {
	toks []token
	pos  int
}

// Parse compiles one SQL statement. Identifiers and string literals in the
// returned AST may alias sql.
func Parse(sql string) (Stmt, error) {
	// Statements up to 23 tokens lex into this stack buffer; append spills
	// longer ones to the heap.
	var buf [24]token
	toks, err := lex(buf[:0], sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var st Stmt
	switch {
	case p.acceptKw("CREATE"):
		st, err = p.parseCreate()
	case p.acceptKw("INSERT"):
		st, err = p.parseInsert()
	case p.acceptKw("SELECT"):
		st, err = p.parseSelect()
	case p.acceptKw("UPDATE"):
		st, err = p.parseUpdate()
	case p.acceptKw("DELETE"):
		st, err = p.parseDelete()
	default:
		return nil, fmt.Errorf("sqldb: expected statement, got %q", p.cur().text)
	}
	if err != nil {
		return nil, err
	}
	p.acceptPunct(";")
	if p.cur().kind != tkEOF {
		return nil, fmt.Errorf("sqldb: trailing input at %q", p.cur().text)
	}
	return st, nil
}

func (p *parser) cur() token { return p.toks[p.pos] }

func (p *parser) acceptKw(kw string) bool {
	if p.cur().kind == tkKeyword && p.cur().text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return fmt.Errorf("sqldb: expected %s, got %q", kw, p.cur().text)
	}
	return nil
}

func (p *parser) acceptPunct(s string) bool {
	if p.cur().kind == tkPunct && p.cur().text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return fmt.Errorf("sqldb: expected %q, got %q", s, p.cur().text)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	if p.cur().kind != tkIdent {
		return "", fmt.Errorf("sqldb: expected identifier, got %q", p.cur().text)
	}
	name := p.cur().text
	p.pos++
	return name, nil
}

func (p *parser) literal() (Value, error) {
	t := p.cur()
	switch t.kind {
	case tkInt:
		p.pos++
		return Int(t.i), nil
	case tkFloat:
		p.pos++
		return Float(t.f), nil
	case tkString:
		p.pos++
		return Text(t.text), nil
	case tkKeyword:
		if t.text == "NULL" {
			p.pos++
			return Null(), nil
		}
	}
	return Value{}, fmt.Errorf("sqldb: expected literal, got %q", t.text)
}

func (p *parser) parseCreate() (Stmt, error) {
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	st := &CreateStmt{Table: name, PK: 0}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		var kind Kind
		switch {
		case p.acceptKw("INT"), p.acceptKw("INTEGER"):
			kind = KInt
		case p.acceptKw("FLOAT"), p.acceptKw("REAL"):
			kind = KFloat
		case p.acceptKw("TEXT"), p.acceptKw("VARCHAR"):
			kind = KText
			if p.acceptPunct("(") { // VARCHAR(n): size ignored
				if _, err := p.literal(); err != nil {
					return nil, err
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
			}
		default:
			return nil, fmt.Errorf("sqldb: unknown column type %q", p.cur().text)
		}
		if p.acceptKw("PRIMARY") {
			if err := p.expectKw("KEY"); err != nil {
				return nil, err
			}
			st.PK = len(st.Cols)
		}
		st.Cols = append(st.Cols, ColDef{Name: col, Kind: kind})
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	return st, p.expectPunct(")")
}

func (p *parser) parseInsert() (Stmt, error) {
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: name}
	if p.acceptPunct("(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Cols = append(st.Cols, col)
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		st.Vals = append(st.Vals, v)
		if !p.acceptPunct(",") {
			break
		}
	}
	return st, p.expectPunct(")")
}

func (p *parser) parseWhere() ([]Cond, error) {
	if !p.acceptKw("WHERE") {
		return nil, nil
	}
	var conds []Cond
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		t := p.cur()
		if t.kind != tkPunct || !strings.Contains("= < > <= >= != <>", t.text) {
			return nil, fmt.Errorf("sqldb: expected comparison operator, got %q", t.text)
		}
		p.pos++
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		conds = append(conds, Cond{Col: col, Op: t.text, Val: v})
		if !p.acceptKw("AND") {
			break
		}
	}
	return conds, nil
}

func (p *parser) parseSelect() (Stmt, error) {
	st := &SelectStmt{Limit: -1}
	if p.acceptKw("COUNT") {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if err := p.expectPunct("*"); err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		st.Count = true
	} else if !p.acceptPunct("*") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Cols = append(st.Cols, col)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if st.Where, err = p.parseWhere(); err != nil {
		return nil, err
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		if st.OrderBy, err = p.ident(); err != nil {
			return nil, err
		}
		if p.acceptKw("DESC") {
			st.Desc = true
		} else {
			p.acceptKw("ASC")
		}
	}
	if p.acceptKw("LIMIT") {
		v, err := p.literal()
		if err != nil || v.Kind != KInt {
			return nil, fmt.Errorf("sqldb: LIMIT needs an integer")
		}
		st.Limit = int(v.I)
	}
	return st, nil
}

func (p *parser) parseUpdate() (Stmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: name}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		st.Sets = append(st.Sets, struct {
			Col string
			Val Value
		}{col, v})
		if !p.acceptPunct(",") {
			break
		}
	}
	st.Where, err = p.parseWhere()
	return st, err
}

func (p *parser) parseDelete() (Stmt, error) {
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: name}
	st.Where, err = p.parseWhere()
	return st, err
}
