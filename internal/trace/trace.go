// Package trace provides the event counters, the simulated cycle clock, and
// the structured observability layer shared by the machine simulator and the
// benchmark harness.
//
// Counters record architectural events (enclave transitions, TLB activity,
// MEE line operations, faults) so experiments can report the same series the
// paper plots — e.g. Figure 7 overlays the number of ecalls/ocalls on the
// echo-server throughput. The clock accumulates the cost model from package
// isa-level constants declared here, giving a deterministic "simulated
// cycles" measure alongside wall-clock timing.
//
// On top of the flat counters, a Recorder optionally attributes every charge
// to the enclave it bills (per-EID counter sets) and appends it to a bounded
// ring-buffer event log (see ring.go) that exporters turn into Chrome
// trace_event timelines and Prometheus text dumps (see export.go). Latency
// histograms for composite operations live in hist.go. All of it is designed
// so the disabled path costs nothing beyond the original counter increments:
// one atomic pointer load decides whether a charge is observed further.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Event enumerates the counted architectural events.
type Event int

const (
	// Transitions between protection domains.
	EvECall  Event = iota // untrusted -> enclave (EENTER path)
	EvOCall               // enclave -> untrusted service call (EEXIT path)
	EvNECall              // outer -> inner (NEENTER path)
	EvNOCall              // inner -> outer (NEEXIT path)
	EvEENTER
	EvEEXIT
	EvNEENTER
	EvNEEXIT
	EvAEX

	// Address translation machinery.
	EvTLBHit
	EvTLBMiss
	EvTLBFlush
	EvPageWalk
	EvValidateStep   // one step of the Figure-6 validation flow
	EvNestedValidate // accesses approved via the outer-enclave branch

	// Memory protection engine.
	EvMEEEncrypt // cacheline encrypted on writeback to PRM
	EvMEEDecrypt // cacheline decrypted+verified on fetch from PRM
	EvLLCHit
	EvLLCMiss

	// Faults.
	EvFaultGP
	EvFaultPF
	EvFaultMC

	// Paging.
	EvEWB // EPC page evicted
	EvELD // EPC page reloaded
	EvIPI // inter-processor interrupt (TLB shootdown)

	// Runtime fault injection (package chaos). The detail word of these
	// records carries the fault site.
	EvChaosInject  // a fault was injected
	EvChaosRecover // an injected fault was recovered (retry/retransmit/restart)

	// Switchless calls (package switchless). A switchless request elides the
	// EEXIT/EENTER pair; the ring protocol costs below are charged instead so
	// the elided transitions remain attributed.
	EvSwitchless         // a request completed through the ring
	EvSwitchlessFallback // a request fell back to the synchronous path

	numEvents
)

// NumEvents is the number of defined events (the length of a CounterSet).
const NumEvents = int(numEvents)

var eventNames = [...]string{
	EvECall:              "ecall",
	EvOCall:              "ocall",
	EvNECall:             "n_ecall",
	EvNOCall:             "n_ocall",
	EvEENTER:             "EENTER",
	EvEEXIT:              "EEXIT",
	EvNEENTER:            "NEENTER",
	EvNEEXIT:             "NEEXIT",
	EvAEX:                "AEX",
	EvTLBHit:             "tlb_hit",
	EvTLBMiss:            "tlb_miss",
	EvTLBFlush:           "tlb_flush",
	EvPageWalk:           "page_walk",
	EvValidateStep:       "validate_step",
	EvNestedValidate:     "nested_validate",
	EvMEEEncrypt:         "mee_encrypt",
	EvMEEDecrypt:         "mee_decrypt",
	EvLLCHit:             "llc_hit",
	EvLLCMiss:            "llc_miss",
	EvFaultGP:            "fault_gp",
	EvFaultPF:            "fault_pf",
	EvFaultMC:            "fault_mc",
	EvEWB:                "ewb",
	EvELD:                "eld",
	EvIPI:                "ipi",
	EvChaosInject:        "chaos_inject",
	EvChaosRecover:       "chaos_recover",
	EvSwitchless:         "switchless",
	EvSwitchlessFallback: "switchless_fallback",
}

func (e Event) String() string {
	if int(e) < len(eventNames) && eventNames[e] != "" {
		return eventNames[e]
	}
	return fmt.Sprintf("event(%d)", int(e))
}

// Cycle costs of modelled operations. The values are calibrated so that the
// composed transition costs land in the regime the paper's Table II reports
// for real hardware (an ecall around 3.45 µs on a ~4 GHz part, i.e. ~14 k
// cycles dominated by the EENTER/EEXIT pair and TLB refill), while the
// emulated path is measured in wall-clock like the paper's SDK simulation
// mode. The absolute values matter less than their ratios; every experiment
// reports normalized results.
const (
	CostTLBHit       = 1
	CostPageWalk     = 60
	CostValidateStep = 4
	CostTLBFlush     = 120
	// EENTER+EEXIT sum to ~13.8k cycles: 3.45 µs at the i7-7700's 4 GHz,
	// the paper's measured hardware ecall latency (Table II). The resume
	// flavour of EENTER (ocall return) skips TCS claiming and argument
	// staging, putting the ocall round trip at ~12.5k cycles = 3.13 µs.
	CostEENTER       = 7300
	CostEENTERResume = 6000
	CostEEXIT        = 6500
	// NEENTER/NEEXIT stay cheaper than the ecall pair: direct transition,
	// no untrusted-runtime dispatch.
	CostNEENTER    = 6200
	CostNEEXIT     = 5400
	CostAEX        = 7800
	CostMEELine    = 40 // AES-CTR + tree walk per 64-B line
	CostLLCHit     = 30
	CostDRAMAccess = 170
	CostIPI        = 2500

	// Switchless ring protocol (Occlum-style asynchronous calls): the
	// submitter pays one cacheline hand-off plus bookkeeping to post a
	// request, and the servicing worker pays the same to claim, run and
	// complete it. Both together (~800 cycles) replace the ~12.5k-cycle
	// EEXIT+EENTER(resume) pair of a synchronous ocall. The costs are fixed
	// per request — spinning never charges — so replays stay deterministic.
	CostRingSubmit  = 400
	CostRingService = 400

	// Software AES-GCM, as used by the monolithic inter-enclave channel
	// (Figure 11's baseline): a fixed per-call cost (IV/tag handling,
	// buffer management, call overhead inside the enclave crypto library)
	// plus a per-16-byte-block cost. AES-NI-era figures.
	CostGCMFixed    = 1500
	CostGCMPerBlock = 40
)

// CyclesPerUS converts model cycles to microseconds at the paper's 4 GHz
// reference clock; the exporters use it to place events on a time axis.
const CyclesPerUS = 4000.0

// GCMCycles returns the modelled cycle cost of one software AES-GCM
// operation (seal or open) over n bytes.
func GCMCycles(n int) int64 {
	blocks := int64((n + 15) / 16)
	return CostGCMFixed + blocks*CostGCMPerBlock
}

// Counters is a set of event counters safe for concurrent use.
type Counters struct {
	c [numEvents]atomic.Int64
}

// Inc adds one to the event's counter.
func (t *Counters) Inc(e Event) { t.c[e].Add(1) }

// Add adds n to the event's counter.
func (t *Counters) Add(e Event, n int64) { t.c[e].Add(n) }

// Get returns the event's current count.
func (t *Counters) Get(e Event) int64 { return t.c[e].Load() }

// Reset zeroes every counter.
func (t *Counters) Reset() {
	for i := range t.c {
		t.c[i].Store(0)
	}
}

// CounterSet is a flat, allocation-free snapshot of all counters, indexed by
// Event. It is the hot-path alternative to the map-based Snapshot/Diff.
type CounterSet [numEvents]int64

// Get returns the snapshot's count for the event.
func (cs *CounterSet) Get(e Event) int64 { return cs[e] }

// Map converts the non-zero entries to the map form used by reports.
func (cs *CounterSet) Map() map[string]int64 {
	out := make(map[string]int64)
	for i, v := range cs {
		if v != 0 {
			out[Event(i).String()] = v
		}
	}
	return out
}

// Total sums the listed events (all events when none given).
func (cs *CounterSet) Total(events ...Event) int64 {
	var sum int64
	if len(events) == 0 {
		for _, v := range cs {
			sum += v
		}
		return sum
	}
	for _, e := range events {
		sum += cs[e]
	}
	return sum
}

// SnapshotInto loads every counter into dst without allocating.
func (t *Counters) SnapshotInto(dst *CounterSet) {
	for i := range t.c {
		dst[i] = t.c[i].Load()
	}
}

// DiffInto stores the counters accumulated since prev into dst without
// allocating: dst[i] = current[i] - prev[i].
func (t *Counters) DiffInto(prev, dst *CounterSet) {
	for i := range t.c {
		dst[i] = t.c[i].Load() - prev[i]
	}
}

// Snapshot returns a copy of all non-zero counters keyed by event name.
func (t *Counters) Snapshot() map[string]int64 {
	var cs CounterSet
	t.SnapshotInto(&cs)
	return cs.Map()
}

func (t *Counters) String() string {
	snap := t.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", k, snap[k])
	}
	return b.String()
}

// Clock accumulates simulated cycles. It is safe for concurrent use.
type Clock struct {
	cycles atomic.Int64
}

// Advance adds n cycles.
func (c *Clock) Advance(n int64) { c.cycles.Add(n) }

// Cycles returns the accumulated cycle count.
func (c *Clock) Cycles() int64 { return c.cycles.Load() }

// Reset zeroes the clock.
func (c *Clock) Reset() { c.cycles.Store(0) }

// NoCore marks charges with no specific core (machine-global operations).
const NoCore = -1

// NoEID is the attribution identity for non-enclave (untrusted) execution.
const NoEID uint64 = 0

// sink is the enabled-observation state: per-enclave counter sets, the
// optional event log, and the span layer (stacks, completed-span ring,
// profiler — see span.go). A Recorder points at one only while observation
// is on, so the disabled fast path is a single atomic pointer load.
type sink struct {
	perEID sync.Map // uint64 EID -> *Counters
	log    *EventLog
	spans  spanState
}

func (s *sink) counters(eid uint64) *Counters {
	if c, ok := s.perEID.Load(eid); ok {
		return c.(*Counters)
	}
	c, _ := s.perEID.LoadOrStore(eid, &Counters{})
	return c.(*Counters)
}

func (s *sink) record(eid uint64, core int, e Event, cost int64, clock int64, detail uint64) {
	s.counters(eid).Inc(e)
	if s.log != nil {
		s.log.Append(Record{
			Cycles: clock,
			Cost:   cost,
			Core:   int32(core),
			EID:    eid,
			Event:  e,
			Detail: detail,
			Span:   s.spans.spanTop(core),
		})
	}
	s.spans.maybeSample(clock)
}

// Recorder bundles counters, a clock, latency histograms, and the optional
// attribution sink; the machine carries one and every layer charges events
// and cycles against it.
type Recorder struct {
	Counters
	Clock

	hist [numOps]Histogram

	// sink is non-nil only while observation (per-enclave attribution and
	// the event log) is enabled.
	sink atomic.Pointer[sink]
	// billHint names the enclave to bill for memory-hierarchy charges made
	// by layers that have no protection context of their own (LLC, MEE).
	// The access path stores the current enclave here before touching
	// memory; all such accesses are serialized by the machine lock.
	billHint atomic.Uint64
}

// EnableObservation turns on per-enclave attribution, span tracing, and —
// when logCapacity is positive — the bounded ring-buffer event log. Charges
// made while observation is off are counted globally but not attributed. The
// completed-span ring is sized like the event log (minimum 1024 spans).
func (r *Recorder) EnableObservation(logCapacity int) {
	s := &sink{}
	if logCapacity > 0 {
		s.log = NewEventLog(logCapacity)
	}
	spanCap := logCapacity
	if spanCap < 1024 {
		spanCap = 1024
	}
	s.spans.done = newSpanRing(spanCap)
	r.sink.Store(s)
}

// DisableObservation returns the recorder to the zero-cost fast path. The
// accumulated per-enclave counters and event log are dropped.
func (r *Recorder) DisableObservation() { r.sink.Store(nil) }

// Observing reports whether attribution is currently enabled.
func (r *Recorder) Observing() bool { return r.sink.Load() != nil }

// Log returns the event log, nil when observation (or the log) is disabled.
func (r *Recorder) Log() *EventLog {
	if s := r.sink.Load(); s != nil {
		return s.log
	}
	return nil
}

// PerEnclave snapshots the per-enclave counters accumulated since
// EnableObservation, keyed by EID. Empty when observation is disabled.
func (r *Recorder) PerEnclave() map[uint64]CounterSet {
	out := make(map[uint64]CounterSet)
	s := r.sink.Load()
	if s == nil {
		return out
	}
	s.perEID.Range(func(k, v any) bool {
		var cs CounterSet
		v.(*Counters).SnapshotInto(&cs)
		out[k.(uint64)] = cs
		return true
	})
	return out
}

// SetBillHint names the enclave subsequent memory-hierarchy charges bill to.
func (r *Recorder) SetBillHint(eid uint64) { r.billHint.Store(eid) }

// Charge records the event and advances the clock by the given cost without
// attribution (billed to NoEID).
func (r *Recorder) Charge(e Event, cycles int64) {
	r.ChargeTo(NoEID, NoCore, e, cycles)
}

// ChargeTo records the event, advances the clock, and — when observation is
// enabled — bills the event to enclave eid on the given core.
func (r *Recorder) ChargeTo(eid uint64, core int, e Event, cycles int64) {
	r.Inc(e)
	r.Advance(cycles)
	if s := r.sink.Load(); s != nil {
		s.record(eid, core, e, cycles, r.Cycles(), 0)
	}
}

// ChargeToDetail is ChargeTo with an event-specific detail word (a virtual
// page number, a chunk size, ...) carried into the event log.
func (r *Recorder) ChargeToDetail(eid uint64, core int, e Event, cycles int64, detail uint64) {
	r.Inc(e)
	r.Advance(cycles)
	if s := r.sink.Load(); s != nil {
		s.record(eid, core, e, cycles, r.Cycles(), detail)
	}
}

// ChargeBatchTo records n occurrences of the event as one batched charge:
// counters (global and per-enclave) advance by n, the clock advances by
// n*cyclesEach, and — when observation is enabled — a single event-log record
// is appended whose detail word carries the batch size. The access path uses
// it so per-step charges (e.g. validate steps within one page walk) stop
// being per-call work; totals are bit-identical to n individual charges.
func (r *Recorder) ChargeBatchTo(eid uint64, core int, e Event, n int64, cyclesEach int64) {
	if n <= 0 {
		return
	}
	r.Add(e, n)
	r.Advance(n * cyclesEach)
	if s := r.sink.Load(); s != nil {
		s.counters(eid).Add(e, n-1) // record() adds the final one
		s.record(eid, core, e, n*cyclesEach, r.Cycles(), uint64(n))
	}
}

// ChargeHint is ChargeTo billed to the enclave named by the last SetBillHint.
// The memory hierarchy (LLC, MEE) uses it because those layers run below the
// protection context.
func (r *Recorder) ChargeHint(e Event, cycles int64) {
	r.Inc(e)
	r.Advance(cycles)
	if s := r.sink.Load(); s != nil {
		s.record(r.billHint.Load(), NoCore, e, cycles, r.Cycles(), 0)
	}
}

// Observe adds one sample to the composite-operation latency histogram.
func (r *Recorder) Observe(op Op, cycles int64) { r.hist[op].Observe(cycles) }

// Hist returns the histogram for the operation.
func (r *Recorder) Hist(op Op) *Histogram { return &r.hist[op] }

// HistSnapshots returns snapshots of every histogram with samples, keyed by
// operation name.
func (r *Recorder) HistSnapshots() map[string]HistSnapshot {
	out := make(map[string]HistSnapshot)
	for op := Op(0); op < numOps; op++ {
		if snap := r.hist[op].Snapshot(); snap.Count > 0 {
			out[op.String()] = snap
		}
	}
	return out
}

// Region is a named measurement scope used by the bench harness to attribute
// counter deltas to workload phases. Regions are independent snapshots over
// the recorder's atomic counters: concurrent BeginRegion/EndInto calls on
// different regions (or different recorders) never contend.
type Region struct {
	Name  string
	start CounterSet
	rec   *Recorder
}

// BeginRegion snapshots the recorder for a later EndInto.
func (r *Recorder) BeginRegion(name string) *Region {
	reg := &Region{Name: name, rec: r}
	r.Counters.SnapshotInto(&reg.start)
	return reg
}

// EndInto stores the counter deltas since the region began into dst without
// allocating.
func (reg *Region) EndInto(dst *CounterSet) {
	reg.rec.Counters.DiffInto(&reg.start, dst)
}
