package sqldb

import (
	"fmt"
	"sort"
	"strings"
)

// DB is an in-memory database.
type DB struct {
	tables map[string]*table
}

type table struct {
	name string
	cols []ColDef
	pk   int
	// rows holds row storage; deleted rows are nil.
	rows  [][]Value
	index *BTree
	live  int
}

// Result carries statement output.
type Result struct {
	Columns  []string
	Rows     [][]Value
	Affected int
}

// New creates an empty database.
func New() *DB { return &DB{tables: make(map[string]*table)} }

// Exec parses and executes one statement.
func (db *DB) Exec(sql string) (*Result, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.ExecStmt(st)
}

// MustExec is Exec for statements that must succeed (setup code).
func (db *DB) MustExec(sql string) *Result {
	r, err := db.Exec(sql)
	if err != nil {
		panic(err)
	}
	return r
}

// ExecStmt executes a pre-parsed statement (the fast path for prepared
// workloads like YCSB).
func (db *DB) ExecStmt(st Stmt) (*Result, error) {
	switch s := st.(type) {
	case *CreateStmt:
		return db.execCreate(s)
	case *InsertStmt:
		return db.execInsert(s)
	case *SelectStmt:
		return db.execSelect(s)
	case *UpdateStmt:
		return db.execUpdate(s)
	case *DeleteStmt:
		return db.execDelete(s)
	}
	return nil, fmt.Errorf("sqldb: unknown statement type %T", st)
}

func (db *DB) table(name string) (*table, error) {
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("sqldb: no such table %q", name)
	}
	return t, nil
}

func (t *table) colIndex(name string) (int, error) {
	for i, c := range t.cols {
		if c.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("sqldb: table %s has no column %q", t.name, name)
}

func (db *DB) execCreate(s *CreateStmt) (*Result, error) {
	if _, exists := db.tables[s.Table]; exists {
		return nil, fmt.Errorf("sqldb: table %q already exists", s.Table)
	}
	if len(s.Cols) == 0 {
		return nil, fmt.Errorf("sqldb: table needs at least one column")
	}
	seen := map[string]bool{}
	for _, c := range s.Cols {
		if seen[c.Name] {
			return nil, fmt.Errorf("sqldb: duplicate column %q", c.Name)
		}
		seen[c.Name] = true
	}
	db.tables[s.Table] = &table{name: s.Table, cols: s.Cols, pk: s.PK, index: NewBTree()}
	return &Result{}, nil
}

func (db *DB) execInsert(s *InsertStmt) (*Result, error) {
	t, err := db.table(s.Table)
	if err != nil {
		return nil, err
	}
	row := make([]Value, len(t.cols))
	for i := range row {
		row[i] = Null()
	}
	if len(s.Cols) == 0 {
		if len(s.Vals) != len(t.cols) {
			return nil, fmt.Errorf("sqldb: %d values for %d columns", len(s.Vals), len(t.cols))
		}
		for i, v := range s.Vals {
			if row[i], err = storable(v, t.cols[i].Kind); err != nil {
				return nil, err
			}
		}
	} else {
		if len(s.Cols) != len(s.Vals) {
			return nil, fmt.Errorf("sqldb: %d columns but %d values", len(s.Cols), len(s.Vals))
		}
		for i, cn := range s.Cols {
			ci, err := t.colIndex(cn)
			if err != nil {
				return nil, err
			}
			if row[ci], err = storable(s.Vals[i], t.cols[ci].Kind); err != nil {
				return nil, err
			}
		}
	}
	key := row[t.pk]
	if key.Kind == KNull {
		return nil, fmt.Errorf("sqldb: NULL primary key")
	}
	if _, exists := t.index.Get(key); exists {
		return nil, fmt.Errorf("sqldb: duplicate primary key %s", key)
	}
	t.rows = append(t.rows, row)
	t.index.Set(key, len(t.rows)-1)
	t.live++
	return &Result{Affected: 1}, nil
}

// storable coerces v for a column of kind want and gives text its own copy:
// parsed literals alias the statement, which a stored row must not pin.
func storable(v Value, want Kind) (Value, error) {
	v, err := coerce(v, want)
	if v.Kind == KText {
		v.S = strings.Clone(v.S)
	}
	return v, err
}

// matchRows returns the row ids satisfying the conjunctive conditions,
// using the primary-key index for point and range predicates on the PK.
func (t *table) matchRows(where []Cond) ([]int, error) {
	// Validate and locate condition columns.
	type cc struct {
		ci int
		Cond
	}
	var conds []cc
	for _, c := range where {
		ci, err := t.colIndex(c.Col)
		if err != nil {
			return nil, err
		}
		v, err := coerce(c.Val, t.cols[ci].Kind)
		if err != nil {
			return nil, err
		}
		c.Val = v
		conds = append(conds, cc{ci: ci, Cond: c})
	}
	match := func(row []Value) bool {
		for _, c := range conds {
			if !evalCond(row[c.ci], c.Op, c.Val) {
				return false
			}
		}
		return true
	}

	// Index path: an equality on the PK resolves to at most one row.
	for _, c := range conds {
		if c.ci == t.pk && c.Op == "=" {
			id, ok := t.index.Get(c.Val)
			if !ok || t.rows[id] == nil || !match(t.rows[id]) {
				return nil, nil
			}
			return []int{id}, nil
		}
	}
	// Index path: PK range predicates bound an ordered scan.
	var lo, hi *Value
	ranged := false
	for _, c := range conds {
		if c.ci != t.pk {
			continue
		}
		v := c.Val
		switch c.Op {
		case ">", ">=":
			lo, ranged = &v, true
		case "<", "<=":
			hi, ranged = &v, true
		}
	}
	var ids []int
	if ranged {
		t.index.ScanRange(lo, hi, func(_ Value, id int) bool {
			if t.rows[id] != nil && match(t.rows[id]) {
				ids = append(ids, id)
			}
			return true
		})
		return ids, nil
	}
	// Full scan.
	for id, row := range t.rows {
		if row != nil && match(row) {
			ids = append(ids, id)
		}
	}
	return ids, nil
}

func evalCond(a Value, op string, b Value) bool {
	if a.Kind == KNull || b.Kind == KNull {
		return false // SQL three-valued logic: NULL compares unknown
	}
	c := Compare(a, b)
	switch op {
	case "=":
		return c == 0
	case "<":
		return c < 0
	case ">":
		return c > 0
	case "<=":
		return c <= 0
	case ">=":
		return c >= 0
	case "!=", "<>":
		return c != 0
	}
	return false
}

func (db *DB) execSelect(s *SelectStmt) (*Result, error) {
	t, err := db.table(s.Table)
	if err != nil {
		return nil, err
	}
	ids, err := t.matchRows(s.Where)
	if err != nil {
		return nil, err
	}
	if s.Count {
		return &Result{Columns: []string{"COUNT(*)"}, Rows: [][]Value{{Int(int64(len(ids)))}}}, nil
	}
	// Projection.
	proj := make([]int, 0, len(t.cols))
	var names []string
	if s.Cols == nil {
		for i, c := range t.cols {
			proj = append(proj, i)
			names = append(names, c.Name)
		}
	} else {
		for _, cn := range s.Cols {
			ci, err := t.colIndex(cn)
			if err != nil {
				return nil, err
			}
			proj = append(proj, ci)
			names = append(names, cn)
		}
	}
	if s.OrderBy != "" {
		oi, err := t.colIndex(s.OrderBy)
		if err != nil {
			return nil, err
		}
		sort.SliceStable(ids, func(a, b int) bool {
			c := Compare(t.rows[ids[a]][oi], t.rows[ids[b]][oi])
			if s.Desc {
				return c > 0
			}
			return c < 0
		})
	}
	if s.Limit >= 0 && len(ids) > s.Limit {
		ids = ids[:s.Limit]
	}
	res := &Result{Columns: names}
	for _, id := range ids {
		out := make([]Value, len(proj))
		for i, ci := range proj {
			out[i] = t.rows[id][ci]
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

func (db *DB) execUpdate(s *UpdateStmt) (*Result, error) {
	t, err := db.table(s.Table)
	if err != nil {
		return nil, err
	}
	ids, err := t.matchRows(s.Where)
	if err != nil {
		return nil, err
	}
	type setOp struct {
		ci int
		v  Value
	}
	var sets []setOp
	for _, st := range s.Sets {
		ci, err := t.colIndex(st.Col)
		if err != nil {
			return nil, err
		}
		v, err := storable(st.Val, t.cols[ci].Kind)
		if err != nil {
			return nil, err
		}
		sets = append(sets, setOp{ci: ci, v: v})
	}
	for _, id := range ids {
		for _, so := range sets {
			if so.ci == t.pk {
				// Primary-key update: maintain the index.
				old := t.rows[id][t.pk]
				if Compare(old, so.v) != 0 {
					if _, exists := t.index.Get(so.v); exists {
						return nil, fmt.Errorf("sqldb: duplicate primary key %s", so.v)
					}
					t.index.Delete(old)
					t.index.Set(so.v, id)
				}
			}
			t.rows[id][so.ci] = so.v
		}
	}
	return &Result{Affected: len(ids)}, nil
}

func (db *DB) execDelete(s *DeleteStmt) (*Result, error) {
	t, err := db.table(s.Table)
	if err != nil {
		return nil, err
	}
	ids, err := t.matchRows(s.Where)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		t.index.Delete(t.rows[id][t.pk])
		t.rows[id] = nil
		t.live--
	}
	return &Result{Affected: len(ids)}, nil
}

// NumRows reports the live row count of a table (tests, stats).
func (db *DB) NumRows(tableName string) (int, error) {
	t, err := db.table(tableName)
	if err != nil {
		return 0, err
	}
	return t.live, nil
}
