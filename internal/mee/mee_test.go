package mee

import (
	"bytes"
	"testing"
	"testing/quick"

	"nestedenclave/internal/chaos"
	"nestedenclave/internal/isa"
	"nestedenclave/internal/phys"
	"nestedenclave/internal/trace"
)

func layout() phys.Layout {
	return phys.Layout{DRAMSize: 8 << 20, PRMBase: 2 << 20, PRMSize: 4 << 20}
}

func newEngine() (*Engine, *phys.Memory, *trace.Recorder) {
	mem := phys.MustNew(layout())
	rec := &trace.Recorder{}
	return MustNew(mem, rec), mem, rec
}

func line(fill byte) []byte { return bytes.Repeat([]byte{fill}, isa.LineSize) }

func TestPRMRoundTrip(t *testing.T) {
	e, _, _ := newEngine()
	p := layout().PRMBase
	if err := e.WriteLine(p, line(0x42)); err != nil {
		t.Fatal(err)
	}
	got, err := e.ReadLine(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, line(0x42)) {
		t.Fatalf("round trip lost data: %v", got[:8])
	}
}

func TestPRMIsCiphertextInDRAM(t *testing.T) {
	e, mem, _ := newEngine()
	p := layout().PRMBase
	pt := line(0x42)
	if err := e.WriteLine(p, pt); err != nil {
		t.Fatal(err)
	}
	raw := mem.Read(p, isa.LineSize)
	if bytes.Equal(raw, pt) {
		t.Fatal("PRM line stored as plaintext")
	}
}

func TestNonPRMPassesThrough(t *testing.T) {
	e, mem, rec := newEngine()
	p := isa.PAddr(0x1000)
	if err := e.WriteLine(p, line(0x17)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mem.Read(p, isa.LineSize), line(0x17)) {
		t.Fatal("non-PRM line not stored raw")
	}
	if rec.Get(trace.EvMEEEncrypt) != 0 {
		t.Fatal("non-PRM write charged an MEE encryption")
	}
}

func TestTamperDetection(t *testing.T) {
	e, mem, rec := newEngine()
	p := layout().PRMBase + 4096
	if err := e.WriteLine(p, line(0x99)); err != nil {
		t.Fatal(err)
	}
	mem.TamperByte(p+5, 0x01) // physical attacker flips a bit
	_, err := e.ReadLine(p)
	if err == nil {
		t.Fatal("tampered line read succeeded")
	}
	if !isa.IsFault(err, isa.FaultMC) {
		t.Fatalf("tamper raised %v, want #MC", err)
	}
	if rec.Get(trace.EvFaultMC) != 1 {
		t.Fatal("machine check not counted")
	}
}

func TestFreshLineReadsZero(t *testing.T) {
	e, _, _ := newEngine()
	got, err := e.ReadLine(layout().PRMBase + 8192)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, isa.LineSize)) {
		t.Fatalf("fresh PRM line = %v", got[:8])
	}
}

func TestVersioningPreventsCiphertextReplay(t *testing.T) {
	e, mem, _ := newEngine()
	p := layout().PRMBase
	if err := e.WriteLine(p, line(0x01)); err != nil {
		t.Fatal(err)
	}
	old := mem.Read(p, isa.LineSize) // attacker snapshots ciphertext v1
	if err := e.WriteLine(p, line(0x02)); err != nil {
		t.Fatal(err)
	}
	mem.Write(p, old) // attacker replays the stale ciphertext
	if _, err := e.ReadLine(p); err == nil {
		t.Fatal("replayed stale ciphertext accepted")
	}
}

func TestDisabledEngineStoresPlaintext(t *testing.T) {
	e, mem, _ := newEngine()
	e.Enabled = false
	p := layout().PRMBase
	if err := e.WriteLine(p, line(0x33)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mem.Read(p, isa.LineSize), line(0x33)) {
		t.Fatal("disabled engine still encrypted")
	}
}

func TestDropPageForgetsMetadata(t *testing.T) {
	e, mem, _ := newEngine()
	p := layout().PRMBase
	if err := e.WriteLine(p, line(0x55)); err != nil {
		t.Fatal(err)
	}
	// Page recycled: DRAM zeroed, metadata dropped; the next read must not
	// fail integrity, it must see a fresh zero line.
	mem.Zero(p, isa.PageSize)
	e.DropPage(p)
	got, err := e.ReadLine(p)
	if err != nil {
		t.Fatalf("recycled page read: %v", err)
	}
	if !bytes.Equal(got, make([]byte, isa.LineSize)) {
		t.Fatalf("recycled page not zero: %v", got[:8])
	}
}

func TestUnalignedRejected(t *testing.T) {
	e, _, _ := newEngine()
	if err := e.WriteLine(layout().PRMBase+1, line(0)); err == nil {
		t.Fatal("unaligned write accepted")
	}
	if _, err := e.ReadLine(layout().PRMBase + 7); err == nil {
		t.Fatal("unaligned read accepted")
	}
	if err := e.WriteLine(layout().PRMBase, []byte{1, 2}); err == nil {
		t.Fatal("short write accepted")
	}
}

// Property: for arbitrary line contents and PRM line indices, write-read is
// the identity, and the ciphertext never equals the plaintext.
func TestRoundTripProperty(t *testing.T) {
	e, mem, _ := newEngine()
	f := func(content [isa.LineSize]byte, idx uint16) bool {
		p := layout().PRMBase + isa.PAddr(idx)*isa.LineSize
		if err := e.WriteLine(p, content[:]); err != nil {
			return false
		}
		got, err := e.ReadLine(p)
		if err != nil {
			return false
		}
		return bytes.Equal(got, content[:]) && !bytes.Equal(mem.Read(p, isa.LineSize), content[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestLinePathAllocs pins the steady-state line path at zero allocations:
// writebacks and fetches of PRM lines (encrypt, decrypt and verify), of
// never-written PRM lines, and of non-PRM lines.
func TestLinePathAllocs(t *testing.T) {
	e, _, _ := newEngine()
	prm, fresh, plain := layout().PRMBase, layout().PRMBase+isa.PageSize, isa.PAddr(isa.PageSize)
	data := line(0x5a)
	for _, p := range []isa.PAddr{prm, plain} {
		if err := e.WriteLine(p, data); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		f    func() error
	}{
		{"WriteLine PRM", func() error { return e.WriteLine(prm, data) }},
		{"ReadLine PRM", func() error { _, err := e.ReadLine(prm); return err }},
		{"ReadLine unwritten PRM", func() error { _, err := e.ReadLine(fresh); return err }},
		{"WriteLine non-PRM", func() error { return e.WriteLine(plain, data) }},
		{"ReadLine non-PRM", func() error { _, err := e.ReadLine(plain); return err }},
	} {
		var err error
		if n := testing.AllocsPerRun(100, func() { err = c.f() }); n != 0 {
			t.Errorf("%s: %v allocs, want 0", c.name, n)
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestFillInterleave replays the LLC's fill order — fetch the new line,
// write back the dirty victim, only then copy the fetched bytes — and checks
// that the writeback leaves the fetched line intact (the read and write
// scratch must not alias).
func TestFillInterleave(t *testing.T) {
	e, _, _ := newEngine()
	for _, base := range []isa.PAddr{layout().PRMBase, 0} {
		fetched, victim := base+0x40, base+0x80
		for _, w := range []struct {
			p    isa.PAddr
			fill byte
		}{{fetched, 0x11}, {victim, 0x22}} {
			if err := e.WriteLine(w.p, line(w.fill)); err != nil {
				t.Fatal(err)
			}
		}
		data, err := e.ReadLine(fetched)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.WriteLine(victim, line(0x33)); err != nil {
			t.Fatal(err)
		}
		var filled [isa.LineSize]byte
		copy(filled[:], data)
		if !bytes.Equal(filled[:], line(0x11)) {
			t.Fatalf("base %#x: fetched line clobbered by the victim writeback: %v", uint64(base), filled[:8])
		}
		got, err := e.ReadLine(victim)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, line(0x33)) {
			t.Fatalf("base %#x: victim reads back %v", uint64(base), got[:8])
		}
	}
}

// TestChaosBitFlipDetected injects one DRAM bit flip on a fetch: it must
// surface as a machine check and poison the line, and because the flip lands
// in the fetch scratch, not in DRAM, the next fetch verifies cleanly.
func TestChaosBitFlipDetected(t *testing.T) {
	e, _, rec := newEngine()
	e.Chaos = chaos.New(chaos.Config{Seed: 1, Sites: map[chaos.Site]chaos.SiteConfig{
		chaos.SiteDRAMBitFlip: {Prob: 1, Budget: 1},
	}}, nil)
	var poisoned []isa.PAddr
	e.Poison = func(p isa.PAddr) { poisoned = append(poisoned, p) }
	p := layout().PRMBase + 0x1c0
	if err := e.WriteLine(p, line(0x77)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ReadLine(p); !isa.IsFault(err, isa.FaultMC) {
		t.Fatalf("flipped line read returned %v, want #MC", err)
	}
	if len(poisoned) != 1 || poisoned[0] != p || rec.Get(trace.EvFaultMC) != 1 {
		t.Fatalf("poisoned %v, %d machine checks; want [%#x], 1", poisoned, rec.Get(trace.EvFaultMC), uint64(p))
	}
	got, err := e.ReadLine(p)
	if err != nil || !bytes.Equal(got, line(0x77)) {
		t.Fatalf("fetch after the flip: %v, %v", got, err)
	}
}

func BenchmarkMEEWriteLine(b *testing.B) {
	e, _, _ := newEngine()
	data := line(0x5a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := layout().PRMBase + isa.PAddr(i%4096)*isa.LineSize
		if err := e.WriteLine(p, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMEEReadLine(b *testing.B) {
	e, _, _ := newEngine()
	data := line(0x5a)
	for i := 0; i < 4096; i++ {
		if err := e.WriteLine(layout().PRMBase+isa.PAddr(i)*isa.LineSize, data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ReadLine(layout().PRMBase + isa.PAddr(i%4096)*isa.LineSize); err != nil {
			b.Fatal(err)
		}
	}
}
