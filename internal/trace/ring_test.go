package trace

import (
	"sync"
	"testing"
)

func TestEventLogCapacityRounding(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{0, 64}, {1, 64}, {64, 64}, {65, 128}, {1000, 1024},
	} {
		if got := NewEventLog(c.in).Cap(); got != c.want {
			t.Errorf("NewEventLog(%d).Cap() = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestEventLogWraparound(t *testing.T) {
	l := NewEventLog(64) // minimum capacity
	const total = 200
	for i := 0; i < total; i++ {
		l.Append(Record{Event: EvECall, Detail: uint64(i)})
	}
	if l.Seq() != total {
		t.Fatalf("seq = %d, want %d", l.Seq(), total)
	}
	if l.Len() != 64 {
		t.Fatalf("len = %d, want 64", l.Len())
	}
	recs := l.Snapshot()
	if len(recs) != 64 {
		t.Fatalf("snapshot has %d records", len(recs))
	}
	// The survivors must be the newest 64, in sequence order with no gaps.
	for i, r := range recs {
		wantSeq := uint64(total - 64 + 1 + i)
		if r.Seq != wantSeq {
			t.Fatalf("record %d: seq %d, want %d", i, r.Seq, wantSeq)
		}
		if r.Detail != wantSeq-1 { // Detail was the append index
			t.Fatalf("record %d: detail %d, want %d", i, r.Detail, wantSeq-1)
		}
	}
}

func TestEventLogPartiallyFilled(t *testing.T) {
	l := NewEventLog(64)
	for i := 0; i < 10; i++ {
		l.Append(Record{Event: EvOCall})
	}
	if l.Len() != 10 {
		t.Fatalf("len = %d", l.Len())
	}
	recs := l.Snapshot()
	if len(recs) != 10 || recs[0].Seq != 1 || recs[9].Seq != 10 {
		t.Fatalf("snapshot: %d records, first %d last %d",
			len(recs), recs[0].Seq, recs[len(recs)-1].Seq)
	}
}

func TestEventLogConcurrentAppend(t *testing.T) {
	l := NewEventLog(256)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Append(Record{Event: EvTLBMiss, Core: int32(id)})
			}
		}(w)
	}
	wg.Wait()
	if l.Seq() != workers*per {
		t.Fatalf("seq = %d, want %d", l.Seq(), workers*per)
	}
	recs := l.Snapshot()
	if len(recs) != 256 {
		t.Fatalf("snapshot has %d records", len(recs))
	}
	// Sequence numbers must be strictly increasing, all from the newest
	// window (no record from an overwritten lap may survive).
	lo := uint64(workers*per - 256)
	for i, r := range recs {
		if r.Seq <= lo {
			t.Fatalf("record %d: stale seq %d (floor %d)", i, r.Seq, lo)
		}
		if i > 0 && r.Seq <= recs[i-1].Seq {
			t.Fatalf("record %d: seq %d not increasing after %d", i, r.Seq, recs[i-1].Seq)
		}
	}
}
