package sqldb

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// FormatStmt renders a parsed statement back to SQL. The nested SQL service
// uses it to rewrite queries (the inner enclave parses, encrypts literal
// values, and forwards the rewritten text to the shared database service).
func FormatStmt(st Stmt) (string, error) {
	var b strings.Builder
	b.Grow(formatSize(st))
	switch s := st.(type) {
	case *CreateStmt:
		b.WriteString("CREATE TABLE ")
		b.WriteString(s.Table)
		b.WriteString(" (")
		for i, c := range s.Cols {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.Name)
			b.WriteByte(' ')
			b.WriteString(c.Kind.String())
			if i == s.PK {
				b.WriteString(" PRIMARY KEY")
			}
		}
		b.WriteString(")")
	case *InsertStmt:
		b.WriteString("INSERT INTO ")
		b.WriteString(s.Table)
		if len(s.Cols) > 0 {
			b.WriteString(" (")
			formatList(&b, s.Cols)
			b.WriteString(")")
		}
		b.WriteString(" VALUES (")
		for i, v := range s.Vals {
			if i > 0 {
				b.WriteString(", ")
			}
			formatLiteral(&b, v)
		}
		b.WriteString(")")
	case *SelectStmt:
		b.WriteString("SELECT ")
		switch {
		case s.Count:
			b.WriteString("COUNT(*)")
		case s.Cols == nil:
			b.WriteString("*")
		default:
			formatList(&b, s.Cols)
		}
		b.WriteString(" FROM ")
		b.WriteString(s.Table)
		formatWhere(&b, s.Where)
		if s.OrderBy != "" {
			b.WriteString(" ORDER BY ")
			b.WriteString(s.OrderBy)
			if s.Desc {
				b.WriteString(" DESC")
			}
		}
		if s.Limit >= 0 {
			b.WriteString(" LIMIT ")
			formatLiteral(&b, Int(int64(s.Limit)))
		}
	case *UpdateStmt:
		b.WriteString("UPDATE ")
		b.WriteString(s.Table)
		b.WriteString(" SET ")
		for i, set := range s.Sets {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(set.Col)
			b.WriteString(" = ")
			formatLiteral(&b, set.Val)
		}
		formatWhere(&b, s.Where)
	case *DeleteStmt:
		b.WriteString("DELETE FROM ")
		b.WriteString(s.Table)
		formatWhere(&b, s.Where)
	default:
		return "", fmt.Errorf("sqldb: cannot format %T", st)
	}
	return b.String(), nil
}

// formatSize bounds FormatStmt's output from above when no text literal
// contains a quote, so the builder allocates once.
func formatSize(st Stmt) int {
	const (
		fixed   = 48 // keywords and punctuation
		perItem = 32 // separators, operator, quotes and a number's digits
	)
	n := fixed
	where := func(w []Cond) {
		for _, c := range w {
			n += len(c.Col) + len(c.Val.S) + perItem
		}
	}
	switch s := st.(type) {
	case *CreateStmt:
		n += len(s.Table)
		for _, c := range s.Cols {
			n += len(c.Name) + perItem
		}
	case *InsertStmt:
		n += len(s.Table)
		for _, c := range s.Cols {
			n += len(c) + 2
		}
		for _, v := range s.Vals {
			n += len(v.S) + perItem
		}
	case *SelectStmt:
		n += len(s.Table) + len(s.OrderBy) + perItem
		for _, c := range s.Cols {
			n += len(c) + 2
		}
		where(s.Where)
	case *UpdateStmt:
		n += len(s.Table)
		for _, set := range s.Sets {
			n += len(set.Col) + len(set.Val.S) + perItem
		}
		where(s.Where)
	case *DeleteStmt:
		n += len(s.Table)
		where(s.Where)
	}
	return n
}

func formatList(b *strings.Builder, names []string) {
	for i, name := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(name)
	}
}

func formatWhere(b *strings.Builder, where []Cond) {
	for i, c := range where {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		b.WriteString(c.Col)
		b.WriteByte(' ')
		b.WriteString(c.Op)
		b.WriteByte(' ')
		formatLiteral(b, c.Val)
	}
}

// formatLiteral writes v as a SQL literal: text quoted with embedded quotes
// doubled, and a float always carrying a '.', 'e' or 'E' so it lexes back as
// a float.
func formatLiteral(b *strings.Builder, v Value) {
	var num [32]byte
	switch v.Kind {
	case KText:
		b.WriteByte('\'')
		s := v.S
		for i := strings.IndexByte(s, '\''); i >= 0; i = strings.IndexByte(s, '\'') {
			b.WriteString(s[:i+1])
			b.WriteByte('\'')
			s = s[i+1:]
		}
		b.WriteString(s)
		b.WriteByte('\'')
	case KInt:
		b.Write(strconv.AppendInt(num[:0], v.I, 10))
	case KFloat:
		f := strconv.AppendFloat(num[:0], v.F, 'g', -1, 64)
		b.Write(f)
		if bytes.IndexAny(f, ".eE") < 0 {
			b.WriteString(".0")
		}
	default:
		b.WriteString("NULL")
	}
}
