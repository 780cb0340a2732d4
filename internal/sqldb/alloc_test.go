package sqldb

import (
	"strings"
	"testing"
	"unsafe"
)

// The three statement shapes the nested SQL service runs, each with a
// 100 B text value where it carries one.
var (
	value100   = strings.Repeat("v", 100)
	selectByPK = "SELECT field0 FROM usertable WHERE ycsb_key = 4242"
	update100  = "UPDATE usertable SET field0 = '" + value100 + "' WHERE ycsb_key = 4242"
	insert100  = "INSERT INTO usertable VALUES (4242, '" + value100 + "')"
)

// TestParseAllocs pins Parse's allocations on the service's statement
// shapes: tokens live in Parse's stack buffer and token texts alias the
// input, so only AST nodes allocate — the statement plus its column,
// value or condition slices.
func TestParseAllocs(t *testing.T) {
	for _, c := range []struct {
		name, sql string
		want      float64
	}{
		{"select", selectByPK, 3}, // *SelectStmt, Cols, Where
		{"update", update100, 3},  // *UpdateStmt, Sets, Where
		{"insert", insert100, 3},  // *InsertStmt, Vals grown 1 -> 2
	} {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := Parse(c.sql); err != nil {
				t.Fatal(err)
			}
		}); n != c.want {
			t.Errorf("Parse(%s) allocates %v/op, want %v", c.name, n, c.want)
		}
	}
}

// TestStoredTextOwnsItsBytes checks that a row stored by INSERT or UPDATE
// does not alias the statement text its literal was parsed from.
func TestStoredTextOwnsItsBytes(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE usertable (ycsb_key INT PRIMARY KEY, field0 TEXT)")
	within := func(s, sql string) bool {
		p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(sql)))
		return p >= lo && p < lo+uintptr(len(sql))
	}
	for _, sql := range []string{insert100, update100} {
		db.MustExec(sql)
		got := db.MustExec(selectByPK).Rows[0][0].S
		if got != value100 {
			t.Fatalf("after %.20q: field0 = %q", sql, got)
		}
		if within(got, sql) {
			t.Fatalf("row stored by %.20q aliases the statement text", sql)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	for _, c := range []struct{ name, sql string }{
		{"select", selectByPK}, {"update", update100}, {"insert", insert100},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Parse(c.sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFormatStmt(b *testing.B) {
	for _, c := range []struct{ name, sql string }{
		{"select", selectByPK}, {"update", update100}, {"insert", insert100},
	} {
		st, err := Parse(c.sql)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := FormatStmt(st); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestFormatStmtAllocs requires FormatStmt to size its builder once.
func TestFormatStmtAllocs(t *testing.T) {
	for _, sql := range []string{selectByPK, update100, insert100} {
		st, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = FormatStmt(st) }); n != 1 {
			t.Errorf("FormatStmt(%.20q) allocates %v/op, want 1", sql, n)
		}
	}
}
