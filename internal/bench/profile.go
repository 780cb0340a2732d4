package bench

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"nestedenclave/internal/sdk"
	"nestedenclave/internal/sqldb"
	"nestedenclave/internal/trace"
)

// This file is the profiling workload behind `nesclave profile` and the
// repro harness's "sqlservice" experiment: the nested SQL service of §VI-B
// driven by a fixed, deterministic query stream with span tracing and the
// simulated-cycle sampling profiler enabled. Unlike the Table VI throughput
// runs, the client enclave stages every query through its trusted heap, so
// each call exercises the full memory path — TLB refills after the
// transition flushes, page walks, LLC/MEE traffic — and the resulting call
// tree carries walk spans worth gating on.

// ProfileConfig tunes a profiling run. The zero value is ready.
type ProfileConfig struct {
	// Queries is the number of deterministic YCSB-like queries (0 → 200).
	Queries int
	// Interval is the profiler's sampling interval in simulated cycles
	// (0 → 2000, a few samples per ecall round trip).
	Interval int64
	// LogCap sizes the event log and span ring (0 → 1<<15). It must hold
	// every span of the run for the span/counter agreement check to be
	// exact; ProfileSQLService fails loudly when spans were evicted.
	LogCap int
}

// ProfileResult is one profiling run's output.
type ProfileResult struct {
	Queries int
	// Cycles is the rig's total simulated cycles.
	Cycles int64
	// Interval is the sampling interval used.
	Interval int64
	// Spans are the completed spans in completion order.
	Spans []trace.Span
	// Tree is the name-aggregated call tree over Spans.
	Tree *trace.SpanNode
	// Folded is the sampling profile (folded stack → samples).
	Folded map[string]int64
	// Hists are the flat PR-1 latency histograms, keyed by op name.
	Hists map[string]trace.HistSnapshot
	// Counters are the flat event counters, keyed by event name.
	Counters map[string]int64
}

// profileQueries builds the deterministic workload: a usertable setup plus a
// fixed read/update/insert mix. No RNG anywhere — run N is identical to run
// N+1, which is what makes the committed perf baseline tight.
func profileQueries(n int) (setup, queries []string) {
	const records = 40
	setup = append(setup, "CREATE TABLE usertable (ycsb_key INT PRIMARY KEY, field0 TEXT)")
	for i := 0; i < records; i++ {
		setup = append(setup, fmt.Sprintf("INSERT INTO usertable VALUES (%d, 'init-%04d')", i, i))
	}
	for i := 0; i < n; i++ {
		key := (i * 7) % records
		switch i % 4 {
		case 0, 1: // 50% reads
			queries = append(queries, fmt.Sprintf("SELECT field0 FROM usertable WHERE ycsb_key = %d", key))
		case 2: // 25% updates
			queries = append(queries, fmt.Sprintf("UPDATE usertable SET field0 = 'upd-%04d' WHERE ycsb_key = %d", i, key))
		default: // 25% inserts
			queries = append(queries, fmt.Sprintf("INSERT INTO usertable VALUES (%d, 'new-%04d')", records+i, i))
		}
	}
	return setup, queries
}

// stage round-trips b through the enclave's trusted heap via the
// hardware-validated access path, forcing the TLB refills and page walks the
// transition flushes make inevitable: Malloc, Write, Read, Free. The region
// is max(len(b), scratch) bytes, written in full with b repeated, and only
// len(b) bytes are read back. A failed step returns at once without the
// Free: the enclave it failed in is crashed or poisoned, and its heap goes
// with it.
func stage(env *sdk.Env, b []byte, scratch int) ([]byte, error) {
	if len(b) == 0 {
		return b, nil
	}
	src := b
	if scratch > len(b) {
		src = make([]byte, scratch)
		for i := range src {
			src[i] = b[i%len(b)]
		}
	}
	buf, err := env.Malloc(len(src))
	if err != nil {
		return nil, err
	}
	if err := env.Write(buf, src); err != nil {
		return nil, err
	}
	out, err := env.Read(buf, len(b))
	if err != nil {
		return nil, err
	}
	if err := env.Free(buf); err != nil {
		return nil, err
	}
	return out, nil
}

// BuildSQLServiceStaged deploys the nested SQL service with heap staging on
// both sides: the client stages the query before parse+encrypt+forward, and
// the shared engine stages the rewritten query before executing it.
func BuildSQLServiceStaged(r *Rig) (*SQLService, error) {
	s := &SQLService{Nested: true, db: sqldb.New(), key: [16]byte{7}}
	s.initCrypto()
	svcImg := sdk.NewImage("sqlite-svc", 0x2000_0000, sdk.DefaultLayout())
	clientImg := sdk.NewImage("sql-client", 0x1000_0000, sdk.DefaultLayout())
	svcImg.RegisterNOCall("sql_exec", func(env *sdk.Env, args []byte) ([]byte, error) {
		staged, err := stage(env, args, 0)
		if err != nil {
			return nil, err
		}
		return execAndRender(s.db, string(staged))
	})
	clientImg.RegisterECall("query", func(env *sdk.Env, args []byte) ([]byte, error) {
		staged, err := stage(env, args, 0)
		if err != nil {
			return nil, err
		}
		rewritten, err := s.rewriteQuery(string(staged))
		if err != nil {
			return nil, err
		}
		return env.NOCall("sql_exec", []byte(rewritten))
	})
	client, svc, err := r.LoadPair(clientImg, svcImg)
	if err != nil {
		return nil, err
	}
	s.Client, s.Svc = client, svc
	return s, nil
}

// Agreement is one row of the span-vs-counter cross-check: the summed
// inclusive cycles of an operation's spans against the sum of the same
// operation's flat latency histogram. Both measure the identical intervals
// (spans open and close exactly where the histograms sample), so the
// relative error is ~0 unless spans were lost.
type Agreement struct {
	Op      string
	SpanCyc int64
	HistCyc int64
	RelErr  float64
}

// Agreements cross-checks every operation present in the histograms.
func (p *ProfileResult) Agreements() []Agreement {
	// Span name prefix per op; page walks are one span kind covering both
	// the regular and the Figure-6 nested histogram.
	spanSum := func(prefixes ...string) int64 {
		var sum int64
		for _, s := range p.Spans {
			for _, pre := range prefixes {
				if s.Name == pre || strings.HasPrefix(s.Name, pre+":") {
					sum += s.Cycles()
					break
				}
			}
		}
		return sum
	}
	histSum := func(names ...string) int64 {
		var sum int64
		for _, n := range names {
			if h, ok := p.Hists[n]; ok {
				sum += h.Sum
			}
		}
		return sum
	}
	rows := []struct {
		op       string
		prefixes []string
		hists    []string
	}{
		{"ecall", []string{"ecall"}, []string{"ecall"}},
		{"ocall", []string{"ocall"}, []string{"ocall"}},
		{"n_ecall", []string{"n_ecall"}, []string{"n_ecall"}},
		{"n_ocall", []string{"n_ocall"}, []string{"n_ocall"}},
		{"page_walk", []string{"page_walk"}, []string{"page_walk", "nested_page_walk"}},
		{"ewb", []string{"ewb"}, []string{"ewb"}},
		{"eld", []string{"eld"}, []string{"eld"}},
	}
	var out []Agreement
	for _, r := range rows {
		h := histSum(r.hists...)
		if h == 0 {
			continue
		}
		s := spanSum(r.prefixes...)
		out = append(out, Agreement{
			Op: r.op, SpanCyc: s, HistCyc: h,
			RelErr: relErr(float64(s), float64(h)),
		})
	}
	return out
}

func relErr(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return 1
	}
	d := (a - b) / b
	if d < 0 {
		return -d
	}
	return d
}

// ProfileSQLService runs the profiling workload and returns the call tree,
// the folded-stack profile, and the flat counters for cross-checking.
func ProfileSQLService(cfg ProfileConfig) (*ProfileResult, error) {
	if cfg.Queries <= 0 {
		cfg.Queries = 200
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 2000
	}
	if cfg.LogCap <= 0 {
		cfg.LogCap = 1 << 15
	}
	r, err := NewRig(SmallMachine())
	if err != nil {
		return nil, err
	}
	rec := r.M.Rec
	rec.EnableObservation(cfg.LogCap)
	rec.EnableProfiler(cfg.Interval)

	s, err := BuildSQLServiceStaged(r)
	if err != nil {
		return nil, err
	}
	setup, queries := profileQueries(cfg.Queries)
	for _, q := range setup {
		if _, err := s.Query(q); err != nil {
			return nil, fmt.Errorf("profile setup: %w", err)
		}
	}
	for _, q := range queries {
		if _, err := s.Query(q); err != nil {
			return nil, fmt.Errorf("profile query: %w", err)
		}
	}

	res := &ProfileResult{
		Queries:  cfg.Queries,
		Cycles:   rec.Cycles(),
		Interval: cfg.Interval,
		Spans:    rec.Spans(),
		Folded:   rec.FoldedStacks(),
		Hists:    rec.HistSnapshots(),
		Counters: rec.Snapshot(),
	}
	res.Tree = trace.AggregateSpans(res.Spans)
	// The agreement check is only meaningful when the span ring held every
	// span; a run big enough to wrap must use a larger LogCap.
	if wantSpans := int64(len(res.Spans)); wantSpans >= int64(cfg.LogCap) {
		return nil, fmt.Errorf("profile: span ring wrapped (%d spans at capacity %d); raise LogCap", wantSpans, cfg.LogCap)
	}
	setLastProfile(res)
	return res, nil
}

// RenderTree formats the call tree with per-node counts, inclusive cycles,
// and the share of total root cycles.
func (p *ProfileResult) RenderTree() string {
	var total int64
	for _, c := range p.Tree.Children {
		total += c.Cycles
	}
	var b strings.Builder
	fmt.Fprintf(&b, "call tree (%d spans, %d queries, %d total root cycles):\n",
		len(p.Spans), p.Queries, total)
	fmt.Fprintf(&b, "  %-42s %10s %14s %7s\n", "span", "count", "cycles", "%root")
	p.Tree.Walk(func(depth int, n *trace.SpanNode) {
		name := strings.Repeat("  ", depth) + n.Name
		share := 0.0
		if total > 0 {
			share = 100 * float64(n.Cycles) / float64(total)
		}
		fmt.Fprintf(&b, "  %-42s %10d %14d %6.1f%%\n", name, n.Count, n.Cycles, share)
	})
	return b.String()
}

// RenderAgreements formats the span-vs-histogram cross-check.
func (p *ProfileResult) RenderAgreements() string {
	var b strings.Builder
	fmt.Fprintf(&b, "span/counter agreement (tolerance 1%%):\n")
	fmt.Fprintf(&b, "  %-12s %14s %14s %8s\n", "op", "span cycles", "hist cycles", "rel err")
	for _, a := range p.Agreements() {
		fmt.Fprintf(&b, "  %-12s %14d %14d %7.3f%%\n", a.Op, a.SpanCyc, a.HistCyc, 100*a.RelErr)
	}
	return b.String()
}

// RenderFolded formats the sampling profile sorted by descending samples.
func (p *ProfileResult) RenderFolded() string {
	keys := make([]string, 0, len(p.Folded))
	for k := range p.Folded {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if p.Folded[keys[i]] != p.Folded[keys[j]] {
			return p.Folded[keys[i]] > p.Folded[keys[j]]
		}
		return keys[i] < keys[j]
	})
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %d\n", k, p.Folded[k])
	}
	return b.String()
}

// lastProfile feeds the repro -http endpoints: the most recent profiling
// run's folded stacks and span flame data.
var (
	profMu      sync.Mutex
	lastProfile *ProfileResult
)

func setLastProfile(p *ProfileResult) {
	profMu.Lock()
	lastProfile = p
	profMu.Unlock()
}

// LastProfile returns the most recent ProfileSQLService result, nil if none
// ran yet.
func LastProfile() *ProfileResult {
	profMu.Lock()
	defer profMu.Unlock()
	return lastProfile
}
