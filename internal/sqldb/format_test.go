package sqldb

import (
	"math"
	"testing"
	"testing/quick"
)

// TestFormatGolden pins FormatStmt's exact output, including the literal
// forms a round trip does not exercise (NaN, infinities, MinInt64, doubled
// quotes, NULL).
func TestFormatGolden(t *testing.T) {
	for _, c := range []struct {
		st   Stmt
		want string
	}{
		{&CreateStmt{Table: "t", Cols: []ColDef{{"id", KInt}, {"name", KText}, {"score", KFloat}}, PK: 1},
			"CREATE TABLE t (id INT, name TEXT PRIMARY KEY, score FLOAT)"},
		{&InsertStmt{Table: "t", Cols: []string{"id", "name"}, Vals: []Value{Int(-7), Text("it's ''x'")}},
			"INSERT INTO t (id, name) VALUES (-7, 'it''s ''''x''')"},
		{&InsertStmt{Table: "t", Vals: []Value{Int(math.MinInt64), Float(2), Float(-0.5), Float(1e300), Float(math.NaN()), Float(math.Inf(-1)), Null(), Text("")}},
			"INSERT INTO t VALUES (-9223372036854775808, 2.0, -0.5, 1e+300, NaN.0, -Inf.0, NULL, '')"},
		{&SelectStmt{Table: "t", Limit: -1}, "SELECT * FROM t"},
		{&SelectStmt{Table: "t", Count: true, Where: []Cond{{"id", ">", Int(3)}}, Limit: 0},
			"SELECT COUNT(*) FROM t WHERE id > 3 LIMIT 0"},
		{&SelectStmt{Table: "t", Cols: []string{"a", "b"}, Where: []Cond{{"id", ">=", Float(1)}, {"name", "<>", Text("'")}}, OrderBy: "b", Desc: true, Limit: 5},
			"SELECT a, b FROM t WHERE id >= 1.0 AND name <> '''' ORDER BY b DESC LIMIT 5"},
		{&UpdateStmt{Table: "t", Sets: []struct {
			Col string
			Val Value
		}{{"name", Text("y")}, {"score", Float(1e21)}}, Where: []Cond{{"id", "=", Int(2)}}},
			"UPDATE t SET name = 'y', score = 1e+21 WHERE id = 2"},
		{&DeleteStmt{Table: "t", Where: []Cond{{"score", "<=", Float(0.5)}, {"x", "!=", Null()}}},
			"DELETE FROM t WHERE score <= 0.5 AND x != NULL"},
	} {
		if got, err := FormatStmt(c.st); err != nil || got != c.want {
			t.Errorf("FormatStmt = %q, %v; want %q", got, err, c.want)
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	cases := []string{
		"CREATE TABLE t (id INT PRIMARY KEY, name TEXT, score FLOAT)",
		"INSERT INTO t VALUES (1, 'a''b', 2.5)",
		"INSERT INTO t (id, name) VALUES (1, 'x')",
		"SELECT * FROM t",
		"SELECT COUNT(*) FROM t WHERE id > 3",
		"SELECT name, score FROM t WHERE id >= 1 AND name != 'q' ORDER BY score DESC LIMIT 5",
		"UPDATE t SET name = 'y', score = 1.0 WHERE id = 2",
		"DELETE FROM t WHERE score <= 0.5",
	}
	for _, sql := range cases {
		st, err := Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		out, err := FormatStmt(st)
		if err != nil {
			t.Fatalf("format %q: %v", sql, err)
		}
		st2, err := Parse(out)
		if err != nil {
			t.Fatalf("reparse %q (from %q): %v", out, sql, err)
		}
		out2, err := FormatStmt(st2)
		if err != nil {
			t.Fatal(err)
		}
		if out != out2 {
			t.Fatalf("format not a fixed point: %q vs %q", out, out2)
		}
	}
}

// Property: formatting any INSERT with arbitrary text survives a
// parse/format round trip with the value intact.
func TestFormatTextProperty(t *testing.T) {
	f := func(s string) bool {
		// The lexer operates on bytes; restrict to valid single-byte text.
		clean := make([]byte, 0, len(s))
		for _, b := range []byte(s) {
			if b >= 0x20 && b < 0x7f {
				clean = append(clean, b)
			}
		}
		st := &InsertStmt{Table: "t", Vals: []Value{Int(1), Text(string(clean))}}
		sql, err := FormatStmt(st)
		if err != nil {
			return false
		}
		back, err := Parse(sql)
		if err != nil {
			return false
		}
		ins, ok := back.(*InsertStmt)
		return ok && len(ins.Vals) == 2 && ins.Vals[1].S == string(clean)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
