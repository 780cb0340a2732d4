package bench

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"

	"nestedenclave/internal/channel"
	"nestedenclave/internal/chaos"
	"nestedenclave/internal/isa"
	"nestedenclave/internal/sdk"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/sqldb"
	"nestedenclave/internal/ycsb"
)

// This file is the chaos soak: the §VI-B SQL service (per-client inner
// enclave encrypting queries, shared SQLite-like engine in the outer
// enclave) run under active fault injection, with both enclaves supervised
// for self-healing. The harness drives a YCSB workload while the injector
// flips DRAM bits under the MEE, fails EPC allocations, drops/duplicates/
// corrupts IPC frames, fires interrupt storms mid-call, and stalls cores —
// and asserts, with an at-most-once oracle, that no acknowledged write is
// ever lost or corrupted and that every injected fault is either retried to
// success or surfaced as a typed error.

// ChaosConfig sizes a soak run.
type ChaosConfig struct {
	// Seed drives the fault injector; the same seed replays the same run.
	Seed uint64
	// Ops is the number of YCSB operations (0 → 300).
	Ops int
	// Records is the preloaded row count (0 → 100).
	Records int
	// Sites overrides the fault-site knobs (nil → DefaultChaosSites()).
	Sites map[chaos.Site]chaos.SiteConfig
}

// DefaultChaosSites returns soak knobs that exercise every fault site while
// keeping the run short: high-frequency hooks (memory access, MEE line
// fills) get low probabilities and hard budgets so the soak terminates.
func DefaultChaosSites() map[chaos.Site]chaos.SiteConfig {
	return map[chaos.Site]chaos.SiteConfig{
		chaos.SiteDRAMBitFlip: {Prob: 0.004, Budget: 4},
		chaos.SiteEPCAlloc:    {Prob: 0.02, Budget: 6},
		chaos.SiteIPCDrop:     {Prob: 0.08, Budget: 25},
		chaos.SiteIPCDup:      {Prob: 0.08, Budget: 25},
		chaos.SiteIPCCorrupt:  {Prob: 0.08, Budget: 25},
		chaos.SiteAEXStorm:    {Prob: 0.005, Budget: 40, Burst: 3},
		chaos.SiteSlowCore:    {Prob: 0.005, Budget: 40},
	}
}

// chaosMachine shrinks the LLC to a few sets so the soak's working set
// cannot hide in the cache: line fills keep flowing through the MEE, which
// is where the DRAM bit-flip site lives.
func chaosMachine() sgx.Config {
	cfg := sgx.SmallConfig()
	cfg.LLC.SizeBytes = 1 << 12
	return cfg
}

// ChaosReport summarizes a soak run.
type ChaosReport struct {
	Ops    int // operations attempted
	Failed int // operations surfaced as (typed) errors after retries

	SvcRestarts    int
	ClientRestarts int

	// ChannelSent/ChannelDelivered count the reliable side stream; they must
	// match for the run to pass.
	ChannelSent      int
	ChannelDelivered int

	Stats map[string]chaos.SiteStats

	// Violations is empty on a passing run: every entry is a data-loss,
	// data-corruption, or machine-invariant finding.
	Violations []string
}

// TotalInjected sums injections across sites.
func (r *ChaosReport) TotalInjected() int64 {
	var n int64
	for _, s := range r.Stats {
		n += s.Injected
	}
	return n
}

func (r *ChaosReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos soak: %d ops, %d failed (typed errors), svc restarts %d, client restarts %d\n",
		r.Ops, r.Failed, r.SvcRestarts, r.ClientRestarts)
	fmt.Fprintf(&b, "side channel: %d sent, %d delivered\n", r.ChannelSent, r.ChannelDelivered)
	for _, site := range slices.Sorted(maps.Keys(r.Stats)) {
		s := r.Stats[site]
		fmt.Fprintf(&b, "  %-12s injected %4d  recovered %4d\n", site, s.Injected, s.Recovered)
	}
	if len(r.Violations) == 0 {
		b.WriteString("violations: none\n")
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "VIOLATION: %s\n", v)
	}
	return b.String()
}

// chaosSvcState is the database engine's state, keyed by EID so a restarted
// instance (fresh EID) starts empty until the sealed checkpoint is replayed
// into it. The journal of applied mutations IS the checkpoint: sealed to
// MRENCLAVE, it survives the instance and rebuilds the exact table contents.
type chaosSvcState struct {
	mu    sync.Mutex
	byEID map[isa.EID]*chaosSvcDB
}

type chaosSvcDB struct {
	db      *sqldb.DB
	journal []string
}

func (st *chaosSvcState) get(eid isa.EID) *chaosSvcDB {
	st.mu.Lock()
	defer st.mu.Unlock()
	d, ok := st.byEID[eid]
	if !ok {
		d = &chaosSvcDB{db: sqldb.New()}
		st.byEID[eid] = d
	}
	return d
}

// chaosFrame packs a sql_exec reply: [8-byte LE result length][result bytes]
// [sealed checkpoint (empty for reads)].
func chaosFrame(result, sealed []byte) []byte {
	out := make([]byte, 8, 8+len(result)+len(sealed))
	binary.LittleEndian.PutUint64(out, uint64(len(result)))
	out = append(out, result...)
	return append(out, sealed...)
}

func splitChaosFrame(raw []byte) (result, sealed []byte, err error) {
	if len(raw) < 8 {
		return nil, nil, fmt.Errorf("chaos: short reply (%d bytes)", len(raw))
	}
	n := binary.LittleEndian.Uint64(raw)
	if 8+n > uint64(len(raw)) {
		return nil, nil, fmt.Errorf("chaos: corrupt reply framing")
	}
	return raw[8 : 8+n], raw[8+n:], nil
}

// chaosHarness wires the supervised service pair.
type chaosHarness struct {
	r      *Rig
	svcSup *sdk.Supervisor
	cliSup *sdk.Supervisor
}

// chaosScratch is the trusted-heap staging region each side of the chaos
// service writes per query.
const chaosScratch = 8 << 10

// buildChaosService deploys the nested SQL service with both enclaves under
// supervision: the stateful engine recovers from sealed checkpoints, the
// stateless client just reloads. Association is re-established by the
// OnRestart hooks whenever either side is replaced.
func buildChaosService(r *Rig) (*chaosHarness, error) {
	h := &chaosHarness{r: r}

	block, err := aes.NewCipher((&[16]byte{7})[:])
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}

	state := &chaosSvcState{byEID: make(map[isa.EID]*chaosSvcDB)}
	svcImg := sdk.NewImage("chaos-sqlite-svc", 0x2000_0000, sdk.DefaultLayout())
	svcImg.RegisterNOCall("sql_exec", func(env *sdk.Env, args []byte) ([]byte, error) {
		st := state.get(env.E.SECS().EID)
		// Stage the incoming query through an engine-side scratch region as
		// large as the client's, so injected faults land on service pages
		// with comparable odds — that is what makes the sealed-checkpoint
		// recovery path fire, not just client reloads.
		staged, serr := stage(env, args, chaosScratch)
		if serr != nil {
			return nil, serr
		}
		q := string(staged)
		parsed, perr := sqldb.Parse(q)
		if perr != nil {
			return nil, perr
		}
		_, isSelect := parsed.(*sqldb.SelectStmt)
		res, xerr := execAndRender(st.db, q)
		if xerr != nil {
			if _, isIns := parsed.(*sqldb.InsertStmt); isIns && strings.Contains(xerr.Error(), "duplicate primary key") {
				// A retried INSERT whose first application was acknowledged
				// at the engine but lost in flight: treat the replay as a
				// no-op so supervisor-level retries stay idempotent.
				return chaosFrame([]byte("affected=0 rows=0"), nil), nil
			}
			return nil, xerr
		}
		if isSelect {
			return chaosFrame(res, nil), nil
		}
		st.journal = append(st.journal, q)
		sealed, serr := env.Seal(sgx.SealToEnclave, []byte(strings.Join(st.journal, "\n")))
		if serr != nil {
			return nil, serr
		}
		return chaosFrame(res, sealed), nil
	})
	svcImg.RegisterECall("sql_restore", func(env *sdk.Env, args []byte) ([]byte, error) {
		pt, uerr := env.Unseal(sgx.SealToEnclave, args)
		if uerr != nil {
			return nil, uerr
		}
		st := state.get(env.E.SECS().EID)
		st.db, st.journal = sqldb.New(), nil
		for _, q := range strings.Split(string(pt), "\n") {
			if q == "" {
				continue
			}
			if _, xerr := st.db.Exec(q); xerr != nil {
				return nil, fmt.Errorf("chaos: checkpoint replay of %q: %w", q, xerr)
			}
			st.journal = append(st.journal, q)
		}
		return nil, nil
	})
	svcImg.RegisterECall("sql_checkpoint", func(env *sdk.Env, args []byte) ([]byte, error) {
		st := state.get(env.E.SECS().EID)
		return env.Seal(sgx.SealToEnclave, []byte(strings.Join(st.journal, "\n")))
	})

	cliImg := sdk.NewImage("chaos-sql-client", 0x1000_0000, sdk.DefaultLayout())
	cliImg.RegisterECall("query", func(env *sdk.Env, args []byte) ([]byte, error) {
		rewritten, rerr := rewriteEncrypted(aead, string(args))
		if rerr != nil {
			return nil, rerr
		}
		// Stage the query through a trusted-heap scratch region larger than
		// the soak machine's LLC, so every call streams lines through the
		// MEE — the surface where bit flips, interrupt storms, and core
		// stalls land.
		staged, serr := stage(env, []byte(rewritten), chaosScratch)
		if serr != nil {
			return nil, serr
		}
		if string(staged) != rewritten {
			return nil, fmt.Errorf("chaos: staged query corrupted in enclave heap")
		}
		return env.NOCall("sql_exec", staged)
	})

	si, so := SignPair(cliImg, svcImg)
	retry := sdk.RetryPolicy{MaxAttempts: 6, Seed: 0xC4A05}

	h.svcSup, err = sdk.Supervise(r.Host, so, sdk.SupervisorConfig{
		Retry:        retry,
		MaxRestarts:  64,
		RestoreECall: "sql_restore",
		OnRestart: func(fresh *sdk.Enclave) error {
			if h.cliSup == nil {
				return nil // initial load: the client does the first Associate
			}
			if cli := h.cliSup.Enclave(); cli != nil {
				return r.Host.Associate(cli, fresh)
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	h.cliSup, err = sdk.Supervise(r.Host, si, sdk.SupervisorConfig{
		Retry:       retry,
		MaxRestarts: 64,
		OnRestart: func(fresh *sdk.Enclave) error {
			if svc := h.svcSup.Enclave(); svc != nil {
				return r.Host.Associate(fresh, svc)
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// call routes one query through the supervised pair. The client supervisor
// transparently retries transients and its own crashes; a crash of the
// shared service surfaces here as a permanent error, so the driver plays
// kernel: restart the service (sealed state restored) and reissue.
func (h *chaosHarness) call(q string) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		out, err := h.cliSup.Call("query", []byte(q))
		if err == nil {
			return out, nil
		}
		lastErr = err
		if h.svcSup.Crashed(err) {
			if rerr := h.svcSup.Restart(); rerr != nil {
				return nil, fmt.Errorf("chaos: service restart: %w", rerr)
			}
			continue
		}
		return nil, err
	}
	return nil, lastErr
}

// chaosOracle tracks, per key, the set of acceptable field0 ciphertexts.
// Acknowledged writes pin the set to one value (exactly-once from the
// client's view); a write whose final retry still failed may or may not have
// been applied, so both old and new values stay acceptable ("" = absent).
type chaosOracle map[int64]map[string]bool

func (o chaosOracle) pin(key int64, ct string) { o[key] = map[string]bool{ct: true} }

func (o chaosOracle) widen(key int64, ct string) {
	if o[key] == nil {
		o[key] = map[string]bool{"": true}
	}
	o[key][ct] = true
}

// ChaosSoak runs the workload under injection and audits the outcome. It is
// deterministic for a fixed config: backoff advances the simulated clock and
// the injector is seed-driven.
func ChaosSoak(cfg ChaosConfig) (*ChaosReport, error) {
	if cfg.Ops == 0 {
		cfg.Ops = 300
	}
	if cfg.Records == 0 {
		cfg.Records = 100
	}
	sites := cfg.Sites
	if sites == nil {
		sites = DefaultChaosSites()
	}

	r, err := NewRig(chaosMachine())
	if err != nil {
		return nil, err
	}
	h, err := buildChaosService(r)
	if err != nil {
		return nil, err
	}

	block, err := aes.NewCipher((&[16]byte{7})[:])
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	enc := func(pt string) string { return encryptTextDet(aead, pt) }

	// Reliable side stream over kernel IPC — the soak's zero-message-loss
	// probe for the drop/duplicate/corrupt sites.
	key := [16]byte{0x42}
	tx, err := channel.NewReliable(r.K.IPC, "chaos-heartbeat", key, 512)
	if err != nil {
		return nil, err
	}
	rx, err := channel.NewReliable(r.K.IPC, "chaos-heartbeat", key, 512)
	if err != nil {
		return nil, err
	}

	// Phase 1: setup with injection disabled (the soak measures steady-state
	// resilience, not install-time fragility).
	mix := ycsb.Mix{Name: "chaos soak (40/40/15/5)", InsertP: 15, SelectP: 40, UpdateP: 40, ScanP: 5}
	w := ycsb.Generate(mix, ycsb.Config{
		Records: cfg.Records, Operations: cfg.Ops, FieldLen: 24,
	}, rand.New(rand.NewSource(int64(cfg.Seed)+1)))
	oracle := chaosOracle{}
	for _, q := range w.Setup {
		out, cerr := h.call(q)
		if cerr != nil {
			return nil, fmt.Errorf("chaos: setup %q: %w", q, cerr)
		}
		_, sealed, ferr := splitChaosFrame(out)
		if ferr != nil {
			return nil, ferr
		}
		h.svcSup.Checkpoint(sealed)
		if st, perr := sqldb.Parse(q); perr == nil {
			if ins, ok := st.(*sqldb.InsertStmt); ok && len(ins.Vals) == 2 {
				oracle.pin(ins.Vals[0].I, enc(ins.Vals[1].S))
			}
		}
	}

	// Phase 2: soak under active injection.
	inj := chaos.New(chaos.Config{Seed: cfg.Seed, Sites: sites}, r.M.Rec)
	r.M.SetChaos(inj)
	r.K.SetChaos(inj)
	rx.SetChaos(inj)

	rep := &ChaosReport{Ops: cfg.Ops}
	recvHeartbeats := func() {
		for {
			pt, ok, herr := rx.RecvRepaired(tx, 16)
			if herr != nil || !ok {
				return
			}
			if string(pt) == fmt.Sprintf("hb-%06d", rep.ChannelDelivered) {
				rep.ChannelDelivered++
			}
		}
	}
	for i, q := range w.Queries {
		tx.Send([]byte(fmt.Sprintf("hb-%06d", rep.ChannelSent)))
		rep.ChannelSent++
		recvHeartbeats()

		st, perr := sqldb.Parse(q)
		if perr != nil {
			return nil, fmt.Errorf("chaos: generated query %q: %w", q, perr)
		}
		out, cerr := h.call(q)
		if cerr != nil {
			// Op failed after all retries: the process survived and the
			// error is typed, but the write may have landed — widen the
			// oracle to accept both outcomes.
			rep.Failed++
			switch s := st.(type) {
			case *sqldb.InsertStmt:
				if len(s.Vals) == 2 {
					oracle.widen(s.Vals[0].I, enc(s.Vals[1].S))
				}
			case *sqldb.UpdateStmt:
				if len(s.Sets) == 1 && len(s.Where) == 1 {
					oracle.widen(s.Where[0].Val.I, enc(s.Sets[0].Val.S))
				}
			}
			continue
		}
		result, sealed, ferr := splitChaosFrame(out)
		if ferr != nil {
			rep.Violations = append(rep.Violations, fmt.Sprintf("op %d: %v", i, ferr))
			continue
		}
		h.svcSup.Checkpoint(sealed)
		switch s := st.(type) {
		case *sqldb.InsertStmt:
			if len(s.Vals) == 2 {
				oracle.pin(s.Vals[0].I, enc(s.Vals[1].S))
			}
		case *sqldb.UpdateStmt:
			if len(s.Sets) == 1 && len(s.Where) == 1 {
				oracle.pin(s.Where[0].Val.I, enc(s.Sets[0].Val.S))
			}
		case *sqldb.SelectStmt:
			checkChaosSelect(rep, oracle, s, string(result), i)
		}
	}

	// Drain the heartbeat tail: a dropped final frame has nothing behind it
	// to reveal the gap, so nudge with retransmits.
	for guard := 0; rep.ChannelDelivered < rep.ChannelSent && guard < 4*rep.ChannelSent; guard++ {
		recvHeartbeats()
		if rep.ChannelDelivered < rep.ChannelSent {
			if terr := tx.Retransmit(uint64(rep.ChannelDelivered)); terr != nil {
				rep.Violations = append(rep.Violations, fmt.Sprintf("heartbeat %d unrecoverable: %v", rep.ChannelDelivered, terr))
				break
			}
		}
	}
	if rep.ChannelDelivered != rep.ChannelSent {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("side channel lost messages: sent %d, delivered %d", rep.ChannelSent, rep.ChannelDelivered))
	}

	// Phase 3: injection off, audit the surviving state against the oracle.
	rep.Stats = inj.Stats()
	r.M.SetChaos(nil)
	r.K.SetChaos(nil)
	rx.SetChaos(nil)

	for _, key := range slices.Sorted(maps.Keys(oracle)) {
		acceptable := oracle[key]
		out, cerr := h.call(fmt.Sprintf("SELECT field0 FROM usertable WHERE ycsb_key = %d", key))
		if cerr != nil {
			rep.Violations = append(rep.Violations, fmt.Sprintf("final audit of key %d: %v", key, cerr))
			continue
		}
		result, _, ferr := splitChaosFrame(out)
		if ferr != nil {
			rep.Violations = append(rep.Violations, fmt.Sprintf("final audit of key %d: %v", key, ferr))
			continue
		}
		got := "" // absent
		if fields := strings.Split(string(result), "|"); len(fields) == 2 {
			got = fields[1]
		}
		if !acceptable[got] {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("key %d: stored value %q not in acceptable set (%d entries) — acknowledged write lost or corrupted", key, got, len(acceptable)))
		}
	}
	rep.SvcRestarts = h.svcSup.Restarts()
	rep.ClientRestarts = h.cliSup.Restarts()
	rep.Violations = append(rep.Violations, r.M.AuditInvariants()...)
	return rep, nil
}

// checkChaosSelect validates a successful SELECT's rows against the oracle.
func checkChaosSelect(rep *ChaosReport, oracle chaosOracle, s *sqldb.SelectStmt, result string, op int) {
	fields := strings.Split(result, "|")[1:] // strip the "affected=..." header
	switch len(s.Cols) {
	case 1: // point lookup: rows of (field0)
		if len(s.Where) != 1 {
			return
		}
		key := s.Where[0].Val.I
		got := ""
		if len(fields) == 1 {
			got = fields[0]
		}
		if acceptable := oracle[key]; acceptable != nil && !acceptable[got] {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("op %d: SELECT key %d returned %q, not in acceptable set", op, key, got))
			return
		}
		if got != "" {
			// A read is an observation: it collapses any ambiguity.
			oracle.pin(key, got)
		}
	case 2: // scan: rows of (ycsb_key, field0)
		for j := 0; j+1 < len(fields); j += 2 {
			var key int64
			if _, err := fmt.Sscanf(fields[j], "%d", &key); err != nil {
				continue
			}
			got := fields[j+1]
			if acceptable := oracle[key]; acceptable != nil && !acceptable[got] {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("op %d: scan row key %d value %q not in acceptable set", op, key, got))
				continue
			}
			oracle.pin(key, got)
		}
	}
}
