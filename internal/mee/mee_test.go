package mee

import (
	"bytes"
	"testing"
	"testing/quick"
	"unsafe"

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

// TestRecycledPageNeverRepeatsCiphertext recycles a page the way EREMOVE
// and EWB do (zero the DRAM, drop the metadata) and writes the same plaintext
// to the same line again: the version counter must carry on across the drop,
// or the line would be sealed under a nonce already used with the platform
// key.
func TestRecycledPageNeverRepeatsCiphertext(t *testing.T) {
	e, mem, _ := newEngine()
	p := layout().PRMBase + 3*isa.PageSize + 0x80
	if err := e.WriteLine(p, line(0x55)); err != nil {
		t.Fatal(err)
	}
	before := mem.Read(p, isa.LineSize)
	mem.Zero(p.PageBase(), isa.PageSize)
	e.DropPage(p)
	if err := e.WriteLine(p, line(0x55)); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(mem.Read(p, isa.LineSize), before) {
		t.Fatal("recycled page repeated a ciphertext: nonce reused under the platform key")
	}
	if got, err := e.ReadLine(p); err != nil || !bytes.Equal(got, line(0x55)) {
		t.Fatalf("recycled line reads %v, %v", got, err)
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

// TestPageMetaAllocs pins the metadata layout: the first writeback into a
// fresh PRM page allocates its one pointer-free metadata block (an exact
// size class), the other 63 lines allocate nothing, and a page recycled with
// DropPage reuses its block.
func TestPageMetaAllocs(t *testing.T) {
	if n := unsafe.Sizeof(pageMeta{}); n != 1536 {
		t.Fatalf("pageMeta is %d bytes, want 1536", n)
	}
	e, _, _ := newEngine()
	data := line(0x5a)
	page := layout().PRMBase
	writePage := func() {
		for off := isa.PAddr(0); off < isa.PageSize; off += isa.LineSize {
			if err := e.WriteLine(page+off, data); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		page += isa.PageSize
		writePage()
	}); n != 1 {
		t.Errorf("writing every line of a fresh page: %v allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		e.DropPage(page)
		writePage()
	}); n != 0 {
		t.Errorf("rewriting a page after DropPage: %v allocs, want 0", n)
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

// FuzzEngineOps runs random sequences of line writebacks, fetches, drops and
// DRAM tampering against a reference model over a small DRAM: a PRM fetch
// returns the last plaintext written back, zeroes for a line never written
// or dropped since, and a machine check while the line's ciphertext differs
// from what was written (until the next writeback); non-PRM lines are raw
// DRAM. Each op is 4 bytes: kind, line index (2 bytes, little endian, modulo
// the DRAM's lines) and an argument — the fill byte of a writeback, or for
// tampering the byte offset (low 6 bits) and flip mask (high 2 bits, plus 1).
func FuzzEngineOps(f *testing.F) {
	const (
		opWrite = iota
		opRead
		opDropLine
		opDropPage
		opTamper
	)
	l := phys.Layout{DRAMSize: 64 << 10, PRMBase: 16 << 10, PRMSize: 32 << 10}
	first := uint16(l.PRMBase / isa.LineSize)
	last := first + uint16(l.PRMSize/isa.LineSize) - 1
	below := first - 1
	enc := func(ops ...uint16) []byte { // kind, index, arg triples
		var b []byte
		for i := 0; i+3 <= len(ops); i += 3 {
			b = append(b, byte(ops[i]), byte(ops[i+1]), byte(ops[i+1]>>8), byte(ops[i+2]))
		}
		return b
	}
	// The first and last PRM lines.
	f.Add(enc(opWrite, first, 1, opRead, first, 0, opWrite, last, 2, opRead, last, 0))
	// The last line below the PRM, tampered and dropped: raw DRAM, no metadata.
	f.Add(enc(opWrite, below, 3, opTamper, below, 0x45, opDropLine, below, 0,
		opDropPage, below, 0, opRead, below, 0, opRead, first, 0))
	// A dropped page fetches as zeroes.
	f.Add(enc(opWrite, first+64, 4, opDropPage, first+64, 0, opRead, first+64, 0))
	// A dropped line written back again.
	f.Add(enc(opWrite, first, 5, opDropLine, first, 0, opWrite, first, 5, opRead, first, 0))
	// One line dropped from a page with other written lines, one of them 32 lines on.
	f.Add(enc(opWrite, first+1, 6, opWrite, first+2, 7, opWrite, first+33, 8,
		opDropLine, first+1, 0, opRead, first+1, 0, opRead, first+2, 0, opRead, first+33, 0))
	// A tampered line faults until it is written back again.
	f.Add(enc(opWrite, first, 8, opTamper, first, 0x03, opRead, first, 0, opWrite, first, 9, opRead, first, 0))
	f.Fuzz(func(t *testing.T, ops []byte) {
		mem := phys.MustNew(l)
		e := MustNew(mem, nil)
		lines := l.DRAMSize / isa.LineSize
		type modelLine struct {
			data    [isa.LineSize]byte // plaintext written back (PRM) or DRAM content (non-PRM)
			flips   [isa.LineSize]byte // DRAM tampering since the last writeback
			written bool               // PRM: holds ciphertext
		}
		ref := make([]modelLine, lines)
		for i := 0; i+4 <= len(ops); i += 4 {
			kind, idx, arg := ops[i]%5, (uint64(ops[i+1])|uint64(ops[i+2])<<8)%lines, ops[i+3]
			p := isa.PAddr(idx * isa.LineSize)
			m := &ref[idx]
			prm := mem.InPRM(p)
			switch kind {
			case opWrite:
				data := line(arg)
				if err := e.WriteLine(p, data); err != nil {
					t.Fatalf("op %d: WriteLine(%#x): %v", i/4, uint64(p), err)
				}
				copy(m.data[:], data)
				m.flips = [isa.LineSize]byte{}
				m.written = prm
			case opRead:
				got, err := e.ReadLine(p)
				switch {
				case prm && m.written && m.flips != [isa.LineSize]byte{}:
					if !isa.IsFault(err, isa.FaultMC) {
						t.Fatalf("op %d: tampered line %#x fetched %v, %v; want #MC", i/4, uint64(p), got, err)
					}
				case err != nil:
					t.Fatalf("op %d: ReadLine(%#x): %v", i/4, uint64(p), err)
				case prm && !m.written:
					if !bytes.Equal(got, make([]byte, isa.LineSize)) {
						t.Fatalf("op %d: unwritten PRM line %#x fetched %v", i/4, uint64(p), got)
					}
				default:
					want := m.data
					for j := range want {
						want[j] ^= m.flips[j]
					}
					if !bytes.Equal(got, want[:]) {
						t.Fatalf("op %d: line %#x fetched %v, want %v", i/4, uint64(p), got, want)
					}
				}
			case opDropLine:
				e.DropLine(p)
				m.written = false
			case opDropPage:
				e.DropPage(p)
				if prm {
					base := idx &^ (linesPerPage - 1)
					for j := range ref[base : base+linesPerPage] {
						ref[base+uint64(j)].written = false
					}
				}
			case opTamper:
				off, xor := arg&isa.LineMask, arg>>6+1
				mem.TamperByte(p+isa.PAddr(off), xor)
				m.flips[off] ^= xor
			}
		}
	})
}

// BenchmarkMEESweep writes back and then fetches every line of a 64 MiB PRM,
// so the integrity metadata far exceeds the host's caches (the line
// benchmarks above cycle through 4,096 lines). One op is one line's
// writeback plus its fetch.
func BenchmarkMEESweep(b *testing.B) {
	l := phys.Layout{DRAMSize: 80 << 20, PRMBase: 16 << 20, PRMSize: 64 << 20}
	e := MustNew(phys.MustNew(l), nil)
	lines := int(l.PRMSize / isa.LineSize)
	data := line(0x5a)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := min(lines, b.N-done)
		for i := 0; i < n; i++ {
			if err := e.WriteLine(l.PRMBase+isa.PAddr(i)*isa.LineSize, data); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			if _, err := e.ReadLine(l.PRMBase + isa.PAddr(i)*isa.LineSize); err != nil {
				b.Fatal(err)
			}
		}
		done += n
	}
}
