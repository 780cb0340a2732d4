//nescheck:allow determinism ops are timed with host wall time by design; simulated time is read from trace.Recorder next to it

package main

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"nestedenclave/internal/bench"
	"nestedenclave/internal/sdk"
	"nestedenclave/internal/sqldb"
	"nestedenclave/internal/switchless"
)

// sql-nested is the nested SQL service of §VI-B. Each query is an ECall
// into the client inner enclave, which stages the query through its trusted
// heap, parses it and encrypts its literals, then makes an n_ocall to the
// outer enclave's sqldb engine, which stages the query again and executes
// it. SELECT results come back encrypted and the client decrypts them; each
// write also appends a journal record to the host through a switchless
// OCallAsync.

type sqlConfig struct {
	Records      int // preloaded 100-byte records
	RoundQueries int // queries per round, a multiple of len(sqlMixBlock)
}

var sqlDefault = sqlConfig{Records: 1000, RoundQueries: 10000}

// sqlMixBlock is the query mix: every block of 20 queries holds exactly 14
// SELECTs, 3 UPDATEs and 3 INSERTs in a seeded order, so every seed runs
// the same 70/15/15 mix.
var sqlMixBlock = []byte("SSSSSSSSSSSSSSUUUIII")

const sqlValueLen = 100

type sqlQuery struct {
	kind byte // 'S', 'U' or 'I'
	key  int
	val  string // the value written, for U and I
	sql  string
}

// sqlStream makes one round's seeded query stream over cfg.Records
// preloaded keys; INSERTs add the next key.
func sqlStream(seed int64, cfg sqlConfig) []sqlQuery {
	rng := rand.New(rand.NewSource(seed))
	block := []byte(string(sqlMixBlock))
	keys := cfg.Records
	qs := make([]sqlQuery, 0, cfg.RoundQueries)
	for len(qs) < cfg.RoundQueries {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, k := range block {
			q := sqlQuery{kind: k}
			switch k {
			case 'S':
				q.key = rng.Intn(keys)
				q.sql = "SELECT field0 FROM usertable WHERE ycsb_key = " + strconv.Itoa(q.key)
			case 'U':
				q.key, q.val = rng.Intn(keys), randValue(rng)
				q.sql = "UPDATE usertable SET field0 = '" + q.val + "' WHERE ycsb_key = " + strconv.Itoa(q.key)
			case 'I':
				q.key, q.val = keys, randValue(rng)
				keys++
				q.sql = "INSERT INTO usertable VALUES (" + strconv.Itoa(q.key) + ", '" + q.val + "')"
			}
			qs = append(qs, q)
		}
	}
	return qs
}

func randValue(rng *rand.Rand) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	b := make([]byte, sqlValueLen)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

func preloadValue(key int) string {
	s := fmt.Sprintf("init-%06d-", key)
	return s + string(bytes.Repeat([]byte{'x'}, sqlValueLen-len(s)))
}

type sqlNested struct {
	cfg     sqlConfig
	queries []sqlQuery
	want    []string // the journal a round must leave: one record per write
	tr      *tracer  // the tracer of the running round, nil when untraced

	rig         *bench.Rig
	client, svc *sdk.Enclave
	aead        cipher.AEAD

	// db is the outer enclave's engine state. pristine replays the
	// statements that built the preloaded table, so every round starts
	// from the same table.
	db       *sqldb.DB
	pristine []string
	seeding  bool
	model    []string // plaintext model of field0, indexed by key

	jmu     sync.Mutex
	journal []string

	swBefore switchless.Stats
}

func newSQLNested(seed int64, cfg sqlConfig) *sqlNested {
	w := &sqlNested{cfg: cfg, queries: sqlStream(seed, cfg)}
	for _, q := range w.queries {
		if q.kind != 'S' {
			w.want = append(w.want, string(q.kind)+" "+strconv.Itoa(q.key))
		}
	}
	return w
}

func (w *sqlNested) close() {
	if w.rig != nil {
		w.rig.Host.StopSwitchless()
	}
	w.rig, w.client, w.svc, w.db = nil, nil, nil, nil
}

func (w *sqlNested) setup() error {
	rig, err := bench.NewRig(bench.SmallMachine())
	if err != nil {
		return err
	}
	w.rig, w.db, w.pristine, w.tr = rig, sqldb.New(), nil, nil
	block, err := aes.NewCipher(bytes.Repeat([]byte{7}, 16))
	if err != nil {
		return err
	}
	if w.aead, err = cipher.NewGCM(block); err != nil {
		return err
	}

	svcImg := sdk.NewImage("sqlite-svc", 0x2000_0000, sdk.DefaultLayout())
	clientImg := sdk.NewImage("sql-client", 0x1000_0000, sdk.DefaultLayout())
	svcImg.RegisterNOCall("sql_exec", w.exec)
	clientImg.RegisterECall("query", w.query)
	clientImg.AllowSwitchless("journal")
	rig.Host.RegisterOCall("journal", func(rec []byte) ([]byte, error) {
		w.jmu.Lock()
		w.journal = append(w.journal, string(rec))
		w.jmu.Unlock()
		return nil, nil
	})
	if w.client, w.svc, err = rig.LoadPair(clientImg, svcImg); err != nil {
		return err
	}
	rig.Host.StartSwitchless(switchless.Config{Workers: 1})

	// Seed the table through the service; the engine logs the rewritten
	// statements as the pristine state.
	w.seeding = true
	seed := []string{"CREATE TABLE usertable (ycsb_key INT PRIMARY KEY, field0 TEXT)"}
	for k := 0; k < w.cfg.Records; k++ {
		seed = append(seed, "INSERT INTO usertable VALUES ("+strconv.Itoa(k)+", '"+preloadValue(k)+"')")
	}
	for _, q := range seed {
		if _, err := w.client.ECall("query", []byte(q)); err != nil {
			w.seeding = false
			return fmt.Errorf("seed: %w", err)
		}
	}
	w.seeding = false
	// Warm up: one untimed round.
	p := &phase{}
	return w.round(&roundCtx{p: p})
}

// stage round-trips b through the enclave's trusted heap over the
// hardware-validated access path.
func (w *sqlNested) stage(env *sdk.Env, b []byte) ([]byte, error) {
	w.tr.begin(spTalloc)
	buf, err := env.Malloc(len(b))
	w.tr.end()
	if err != nil {
		return nil, err
	}
	w.tr.begin(spAccess)
	err = env.Write(buf, b)
	var out []byte
	if err == nil {
		out, err = env.Read(buf, len(b))
	}
	w.tr.end()
	w.tr.begin(spTalloc)
	ferr := env.Free(buf)
	w.tr.end()
	if err != nil {
		return nil, err
	}
	return out, ferr
}

// exec is the outer enclave's n_ocall entry: stage, execute, and return
// affected=N for writes or the (encrypted) field0 of the selected row.
func (w *sqlNested) exec(env *sdk.Env, args []byte) ([]byte, error) {
	staged, err := w.stage(env, args)
	if err != nil {
		return nil, err
	}
	w.tr.begin(spExec)
	res, err := w.db.Exec(string(staged))
	w.tr.end()
	if err != nil {
		return nil, err
	}
	if w.seeding {
		w.pristine = append(w.pristine, string(staged))
	}
	if len(res.Rows) == 1 && len(res.Rows[0]) == 1 {
		return []byte(res.Rows[0][0].String()), nil
	}
	return []byte("affected=" + strconv.Itoa(res.Affected)), nil
}

// query is the client inner enclave's ECall; its argument is the plaintext
// SQL.
func (w *sqlNested) query(env *sdk.Env, args []byte) ([]byte, error) {
	staged, err := w.stage(env, args)
	if err != nil {
		return nil, err
	}
	w.tr.begin(spRewrite)
	st, err := sqldb.Parse(string(staged))
	var rewritten string
	if err == nil {
		rewritten, err = w.encryptLiterals(st)
	}
	w.tr.end()
	if err != nil {
		return nil, err
	}
	w.tr.begin(spNOCall)
	out, err := env.NOCall("sql_exec", []byte(rewritten))
	w.tr.end()
	if err != nil {
		return nil, err
	}
	switch q := st.(type) {
	case *sqldb.SelectStmt:
		w.tr.begin(spRewrite)
		out, err = w.decrypt(out)
		w.tr.end()
		return out, err
	case *sqldb.InsertStmt, *sqldb.UpdateStmt:
		if w.seeding {
			return out, nil
		}
		w.tr.begin(spSwitchless)
		_, err = env.OCallAsync("journal", journalRecord(q))
		w.tr.end()
		return out, err
	}
	return out, nil
}

// journalRecord names the write: its statement kind and key.
func journalRecord(st sqldb.Stmt) []byte {
	switch q := st.(type) {
	case *sqldb.InsertStmt:
		return []byte("I " + q.Vals[0].String())
	case *sqldb.UpdateStmt:
		return []byte("U " + q.Where[0].Val.String())
	}
	return nil
}

func (w *sqlNested) seal(pt string) string {
	nonce := make([]byte, w.aead.NonceSize())
	return hex.EncodeToString(w.aead.Seal(nil, nonce, []byte(pt), nil))
}

func (w *sqlNested) decrypt(ct []byte) ([]byte, error) {
	raw, err := hex.DecodeString(string(ct))
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, w.aead.NonceSize())
	return w.aead.Open(nil, nonce, raw, nil)
}

// encryptLiterals seals every text literal deterministically, so the
// shared engine stores only ciphertext, and formats the statement again.
func (w *sqlNested) encryptLiterals(st sqldb.Stmt) (string, error) {
	switch q := st.(type) {
	case *sqldb.InsertStmt:
		for i, v := range q.Vals {
			if v.Kind == sqldb.KText {
				q.Vals[i] = sqldb.Text(w.seal(v.S))
			}
		}
	case *sqldb.UpdateStmt:
		for i := range q.Sets {
			if q.Sets[i].Val.Kind == sqldb.KText {
				q.Sets[i].Val = sqldb.Text(w.seal(q.Sets[i].Val.S))
			}
		}
	}
	return sqldb.FormatStmt(st)
}

func (w *sqlNested) round(rc *roundCtx) error {
	// Untimed reset: the pristine table, its plaintext model, an empty
	// journal, and a collected heap.
	w.db = sqldb.New()
	for _, s := range w.pristine {
		if _, err := w.db.Exec(s); err != nil {
			return fmt.Errorf("reset: %w", err)
		}
	}
	w.model = w.model[:0]
	for k := 0; k < w.cfg.Records; k++ {
		w.model = append(w.model, preloadValue(k))
	}
	w.jmu.Lock()
	w.journal = w.journal[:0]
	w.jmu.Unlock()
	w.tr = rc.tr
	defer func() { w.tr = nil }()
	if rc.p.rounds == 0 {
		w.swBefore = w.rig.Host.Switchless().Stats()
	}
	rec := w.rig.M.Rec
	runtime.GC()

	rc.beginTimed(rec)
	for _, q := range w.queries {
		c0, t0 := rec.Cycles(), time.Now()
		rc.tr.beginOp(rc.p.ops)
		rc.tr.begin(spECall)
		out, err := w.client.ECall("query", []byte(q.sql))
		rc.tr.end()
		rc.tr.end()
		ns, cyc := int64(time.Since(t0)), rec.Cycles()-c0
		ok := err == nil
		switch q.kind {
		case 'S':
			ok = ok && string(out) == w.model[q.key]
		case 'U':
			ok = ok && string(out) == "affected=1"
			w.model[q.key] = q.val
		case 'I':
			ok = ok && string(out) == "affected=1"
			w.model = append(w.model, q.val)
		}
		rc.moved(len(q.sql))
		rc.op(ns, cyc, ok)
	}
	rc.endTimed()

	// The journal must hold exactly one record per write, in order.
	w.jmu.Lock()
	got := w.journal
	w.jmu.Unlock()
	rc.fail(int64(journalMismatches(w.want, got)))
	return nil
}

// journalMismatches counts writes whose journal record is missing or
// wrong, plus records no write explains.
func journalMismatches(want, got []string) int {
	bad := 0
	for i := range max(len(want), len(got)) {
		if i >= len(want) || i >= len(got) || want[i] != got[i] {
			bad++
		}
	}
	return bad
}

func (w *sqlNested) gauges() map[string]float64 {
	st := w.rig.Host.Switchless().Stats()
	done := st.Completed - w.swBefore.Completed
	fell := st.Fallbacks - w.swBefore.Fallbacks
	ratio := 0.0
	if done+fell > 0 {
		ratio = float64(fell) / float64(done+fell)
	}
	return map[string]float64{
		"switchless.fallback_ratio": ratio,
		"switchless.max_occupancy":  float64(st.MaxOccupancy),
		"pt.entries":                float64(w.rig.Host.Proc.PageTable().Len()),
		"epc.used_pages":            float64(w.rig.M.EPC.NumPages() - w.rig.M.EPC.FreePages()),
	}
}
