package trace

import (
	"sort"
	"sync"
	"sync/atomic"
)

// This file implements the bounded ring-buffer event log behind the
// observability layer: an ordered record of every transition, fault, paging
// and validation event, each stamped with a global sequence number, the
// simulated-cycle clock, the core, and the enclave billed. The log is sized
// at EnableObservation time and overwrites its oldest records when full, so
// long runs keep the most recent window.
//
// Writers contend only on one atomic fetch-add (the sequence allocator) plus
// a per-slot mutex; two writers hit the same slot mutex only when the ring
// wraps within their race window, so the log is lock-free in practice while
// staying race-clean by construction (the tier-2 `-race` target hammers it).

// Record is one logged event.
type Record struct {
	// Seq is the global, gap-free order of the event (1-based).
	Seq uint64
	// Cycles is the simulated-cycle clock just after the event's cost was
	// charged; Cycles-Cost is the event's start time.
	Cycles int64
	// Cost is the cycle cost charged by this event (0 for markers).
	Cost int64
	// Core is the logical processor, NoCore for machine-global events.
	Core int32
	// EID is the enclave the event bills to, NoEID for untrusted execution.
	EID uint64
	// Event is what happened.
	Event Event
	// Detail is an event-specific word (virtual page number for walks,
	// virtual address for paging ops), 0 when unused.
	Detail uint64
	// Span is the innermost span open on the record's core when the event
	// was charged (see span.go), 0 when none — the causal link that places
	// the event inside a call tree.
	Span uint64
}

type logSlot struct {
	mu  sync.Mutex
	rec Record // rec.Seq == 0 means never written
}

// EventLog is a bounded ring buffer of Records, safe for concurrent append.
type EventLog struct {
	mask  uint64
	seq   atomic.Uint64
	slots []logSlot
}

// NewEventLog builds a log holding the most recent `capacity` records
// (rounded up to a power of two, minimum 64).
func NewEventLog(capacity int) *EventLog {
	n := 64
	for n < capacity {
		n <<= 1
	}
	return &EventLog{mask: uint64(n - 1), slots: make([]logSlot, n)}
}

// Cap returns the number of records the log retains.
func (l *EventLog) Cap() int { return len(l.slots) }

// Seq returns the total number of records ever appended.
func (l *EventLog) Seq() uint64 { return l.seq.Load() }

// Len returns the number of records currently held.
func (l *EventLog) Len() int {
	if s := l.seq.Load(); s < uint64(len(l.slots)) {
		return int(s)
	}
	return len(l.slots)
}

// Append stamps rec with the next sequence number and stores it, overwriting
// the oldest record when the ring is full. It returns the assigned sequence.
func (l *EventLog) Append(rec Record) uint64 {
	s := l.seq.Add(1)
	rec.Seq = s
	slot := &l.slots[(s-1)&l.mask]
	slot.mu.Lock()
	// A slower writer from a previous lap must not clobber a newer record.
	if slot.rec.Seq < s {
		slot.rec = rec
	}
	slot.mu.Unlock()
	return s
}

// Snapshot copies the live records in sequence order.
func (l *EventLog) Snapshot() []Record {
	out := make([]Record, 0, len(l.slots))
	for i := range l.slots {
		l.slots[i].mu.Lock()
		rec := l.slots[i].rec
		l.slots[i].mu.Unlock()
		if rec.Seq != 0 {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
