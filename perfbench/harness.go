//nescheck:allow determinism the harness times ops and set-up with host wall time by design; simulated time is read from trace.Recorder next to it

package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"nestedenclave/internal/trace"
)

// workload is one benchmark workload. Its ops run in rounds: a round resets
// the workload to the same logical state, runs a fixed, seeded op sequence
// and checks the outputs. Rounds repeat until the run's time is used, so
// every round sees the same work whatever the host's speed, and the first
// round after set-up is a window whose simulated figures depend on the seed
// alone.
type workload interface {
	// setup builds the workload from scratch: boots a rig, loads and
	// associates the enclaves, seeds the data and warms up. It may run
	// several times; each call replaces the state of the previous one.
	setup() error
	// round runs one round: an untimed reset, the timed ops (each reported
	// through rc), and the untimed output checks.
	round(rc *roundCtx) error
	// gauges reports per-layer figures read from the rig after the first
	// round: sizes and engine statistics rather than per-op counts.
	gauges() map[string]float64
	// close stops what the workload started and drops its rig.
	close()
}

// phase accumulates the measurements of one timed phase.
type phase struct {
	rounds  int
	ops     int64
	failed  int64
	timedNs int64
	alloc   uint64

	lat []int64 // host ns per op, first round
	sim []int64 // simulated cycles per op, first round
	cur []int64 // host ns per op of the running round

	// Per-round host figures; the end-to-end metrics are their medians,
	// which a transient disturbance of the host moves less.
	roundRate, roundP50, roundP99 []float64

	// The first round's counters and payload, for the per-layer counts.
	counters trace.CounterSet
	payload  int64 // bytes the ops moved through simulated memory
	gauges   map[string]float64
}

// roundCtx is handed to workload.round.
type roundCtx struct {
	p      *phase
	tr     *tracer
	window bool // first round of the phase: record simulated figures

	rec     *trace.Recorder
	start   time.Time
	ms      runtime.MemStats
	before  trace.CounterSet
	payload int64
}

// beginTimed starts the timed part of a round on rec's rig.
func (rc *roundCtx) beginTimed(rec *trace.Recorder) {
	rc.rec, rc.p.cur = rec, rc.p.cur[:0]
	rc.tr.bind(rec)
	rec.SnapshotInto(&rc.before)
	runtime.ReadMemStats(&rc.ms)
	rc.start = time.Now()
}

// endTimed closes the timed part of the round.
func (rc *roundCtx) endTimed() {
	ns := int64(time.Since(rc.start))
	p := rc.p
	p.timedNs += ns
	p.roundRate = append(p.roundRate, float64(len(p.cur))/(float64(ns)/1e9))
	p.roundP50 = append(p.roundP50, float64(quantile(p.cur, 0.50)))
	p.roundP99 = append(p.roundP99, float64(quantile(p.cur, 0.99)))
	a := rc.ms.TotalAlloc
	runtime.ReadMemStats(&rc.ms)
	p.alloc += rc.ms.TotalAlloc - a
	if rc.window {
		rc.rec.DiffInto(&rc.before, &p.counters)
		p.payload = rc.payload
	}
}

// op records one completed op: host latency, simulated cycles, and whether
// its output check passed.
func (rc *roundCtx) op(hostNs, simCyc int64, ok bool) {
	rc.p.ops++
	rc.p.cur = append(rc.p.cur, hostNs)
	if rc.window {
		rc.p.lat = append(rc.p.lat, hostNs)
		rc.p.sim = append(rc.p.sim, simCyc)
	}
	if !ok {
		rc.p.failed++
	}
}

// fail counts n ops that a check after the timed part found wrong.
func (rc *roundCtx) fail(n int64) { rc.p.failed += n }

// moved adds bytes that ops moved through simulated memory.
func (rc *roundCtx) moved(n int) { rc.payload += int64(n) }

// runPhase runs rounds until at least seconds of timed ops have passed.
func runPhase(w workload, seconds float64, tr *tracer) (*phase, error) {
	p := &phase{}
	for p.rounds == 0 || float64(p.timedNs)/1e9 < seconds {
		rc := &roundCtx{p: p, tr: tr, window: p.rounds == 0}
		if err := w.round(rc); err != nil {
			return nil, err
		}
		if p.rounds == 0 {
			p.gauges = w.gauges()
		}
		p.rounds++
	}
	return p, nil
}

// timeSetup runs w.setup reps times and returns the median wall time. The
// previous set-up is dropped and collected before each timed one.
func timeSetup(w workload, reps int) (float64, error) {
	var ts []float64
	for i := 0; i < reps; i++ {
		w.close()
		runtime.GC()
		start := time.Now()
		if err := w.setup(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(start).Seconds())
	}
	return median(ts), nil
}

// rank returns the index of the q-quantile in n sorted samples (nearest
// rank) and how many samples lie beyond it.
func rank(n int, q float64) (idx, beyond int) {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	return r - 1, n - r
}

// quantile is the exact nearest-rank q-quantile of xs; xs is sorted in place.
func quantile(xs []int64, q float64) int64 {
	slices.Sort(xs)
	i, _ := rank(len(xs), q)
	return xs[i]
}

// median is the median of xs, which it leaves unsorted.
func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []int64) float64 {
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the eight end-to-end metrics of an untraced phase.
func endToEnd(p *phase, setupS, liveHeapMB float64) (map[string]metric, error) {
	if _, beyond := rank(int(p.ops)/p.rounds, 0.99); beyond < 10 {
		return nil, fmt.Errorf("only %d host samples a round; p99 needs 10 beyond it", int(p.ops)/p.rounds)
	}
	if _, beyond := rank(len(p.sim), 0.99); beyond < 10 {
		return nil, fmt.Errorf("only %d simulated samples; p99 needs 10 beyond it", len(p.sim))
	}
	sim := slices.Clone(p.sim)
	return map[string]metric{
		"setup_s":            {setupS, "s"},
		"ops_per_s":          {median(p.roundRate), "op/s"},
		"lat_p50_us":         {median(p.roundP50) / 1e3, "us"},
		"lat_p99_us":         {median(p.roundP99) / 1e3, "us"},
		"sim_cycles_per_op":  {mean(sim), "cycles"},
		"sim_lat_p99_cycles": {float64(quantile(sim, 0.99)), "cycles"},
		"alloc_bytes_per_op": {float64(p.alloc) / float64(p.ops), "B"},
		"live_heap_mb":       {liveHeapMB, "MiB"},
	}, nil
}

// liveHeapMB forces a collection and returns the live heap in MiB. The
// caller keeps the rig reachable until after the call.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// perLayer computes the per-layer metrics of a traced phase. untracedOps is
// the ops_per_s of the untraced phase of the same run, for the overhead.
func perLayer(p *phase, tr *tracer, untracedOps float64) map[string]metric {
	c := &p.counters
	window := float64(len(p.sim))
	perOp := func(e trace.Event) float64 { return float64(c.Get(e)) / window }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	us := func(n spanName) metric { return metric{tr.selfUS(n), "us"} }
	cyc := func(n spanName) metric { return metric{tr.selfCycles(n), "cycles"} }
	hits, misses := float64(c.Get(trace.EvLLCHit)), float64(c.Get(trace.EvLLCMiss))
	meeLines := float64(c.Get(trace.EvMEEEncrypt) + c.Get(trace.EvMEEDecrypt))
	tracedOps := median(p.roundRate)
	g := p.gauges

	return map[string]metric{
		"sdk.ecall.self_us":           us(spECall),
		"sdk.ecall.self_cycles":       cyc(spECall),
		"sdk.nocall.self_us":          us(spNOCall),
		"sdk.nocall.self_cycles":      cyc(spNOCall),
		"switchless.ocall_us":         us(spSwitchless),
		"switchless.fallback_ratio":   {g["switchless.fallback_ratio"], "ratio"},
		"switchless.max_occupancy":    {g["switchless.max_occupancy"], "count"},
		"sgx.access_us":               us(spAccess),
		"tlb.miss_per_op":             {perOp(trace.EvTLBMiss), "1/op"},
		"tlb.flush_per_op":            {perOp(trace.EvTLBFlush), "1/op"},
		"sgx.page_walk_per_op":        {perOp(trace.EvPageWalk), "1/op"},
		"sgx.validate_step_per_op":    {perOp(trace.EvValidateStep), "1/op"},
		"core.nested_validate_per_op": {perOp(trace.EvNestedValidate), "1/op"},
		"talloc.us":                   us(spTalloc),
		"sqldb.exec_us":               us(spExec),
		"sqldb.rewrite_us":            us(spRewrite),
		"sdk.load_us":                 us(spLoad),
		"sdk.load_cycles":             cyc(spLoad),
		"core.nasso_us":               us(spNASSO),
		"pt.entries":                  {g["pt.entries"], "count"},
		"epc.used_pages":              {g["epc.used_pages"], "pages"},
		"sgx.pages_added_per_op":      {g["sgx.pages_added"] / window, "pages/op"},
		"channel.send_us":             us(spSend),
		"channel.recv_us":             us(spRecv),
		"channel.send_cycles":         cyc(spSend),
		"channel.recv_cycles":         cyc(spRecv),
		"channel.full_ratio":          {g["channel.full_ratio"], "ratio"},
		"cache.llc_hit_ratio":         {ratio(hits, hits+misses), "ratio"},
		"mee.lines_per_kib":           {ratio(meeLines, float64(p.payload)/1024), "lines/KiB"},
		"trace.overhead_pct":          {100 * (untracedOps - tracedOps) / untracedOps, "%"},
	}
}
