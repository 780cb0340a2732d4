package pt

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"nestedenclave/internal/isa"
)

func TestMapWalkTranslate(t *testing.T) {
	tab := New()
	tab.Map(0x1000, 0x5000, isa.PermRW)
	e, ok := tab.Walk(0x1234)
	if !ok || !e.Present || e.PPN != 5 || e.Perms != isa.PermRW {
		t.Fatalf("walk: %+v ok=%v", e, ok)
	}
	pa, ok := tab.Translate(0x1234)
	if !ok || pa != 0x5234 {
		t.Fatalf("translate = %#x ok=%v", uint64(pa), ok)
	}
	if _, ok := tab.Walk(0x9000); ok {
		t.Fatal("unmapped address walked")
	}
}

func TestUnmapAndNotPresent(t *testing.T) {
	tab := New()
	tab.Map(0x1000, 0x5000, isa.PermR)
	tab.Unmap(0x1000)
	if _, ok := tab.Walk(0x1000); ok {
		t.Fatal("unmapped entry still present")
	}
	tab.Map(0x2000, 0x6000, isa.PermR)
	tab.MarkNotPresent(0x2000)
	e, ok := tab.Walk(0x2000)
	if !ok || e.Present {
		t.Fatalf("not-present: %+v ok=%v (want entry with Present=false)", e, ok)
	}
	if _, ok := tab.Lookup(0x2000); ok {
		t.Fatal("Lookup returned a not-present entry")
	}
	if _, ok := tab.Translate(0x2000); ok {
		t.Fatal("Translate used a not-present entry")
	}
	// MarkNotPresent on a missing entry is a no-op.
	tab.MarkNotPresent(0xdead000)
}

func TestProtect(t *testing.T) {
	tab := New()
	tab.Map(0x1000, 0x5000, isa.PermRWX)
	tab.Protect(0x1000, isa.PermR)
	e, _ := tab.Walk(0x1000)
	if e.Perms != isa.PermR {
		t.Fatalf("perms after protect: %v", e.Perms)
	}
	tab.Protect(0xffff000, isa.PermR) // no-op on missing entry
}

func TestLenAndVPNs(t *testing.T) {
	tab := New()
	tab.Map(0x1000, 0x5000, isa.PermR)
	tab.Map(0x2000, 0x6000, isa.PermR)
	if tab.Len() != 2 {
		t.Fatalf("len = %d", tab.Len())
	}
	vpns := tab.VPNs()
	if len(vpns) != 2 {
		t.Fatalf("VPNs = %v", vpns)
	}
}

// TestKernelRemap documents the untrusted nature: the kernel can silently
// redirect a virtual page to a different frame; the page table obliges.
func TestKernelRemap(t *testing.T) {
	tab := New()
	tab.Map(0x1000, 0x5000, isa.PermRW)
	tab.Map(0x1000, 0x7000, isa.PermRW)
	pa, _ := tab.Translate(0x1000)
	if pa != 0x7000 {
		t.Fatalf("remap not applied: %#x", uint64(pa))
	}
}

// fuzzVPNs are the pages FuzzTableOps addresses: both ends of the 52-bit
// VPN space and the first and last slot at each radix level, so random op
// sequences collide on pages and share (or split) interior nodes.
var fuzzVPNs = [16]uint64{
	0, 1, 511, 512, 1<<18 - 1, 1 << 18, 1<<27 - 1, 1 << 27,
	1<<36 - 1, 1 << 36, 1<<45 - 1, 1 << 45, 0x7f000_0000, 1<<52 - 512, 1<<52 - 2, 1<<52 - 1,
}

// FuzzTableOps runs random Map/Unmap/Protect/MarkNotPresent sequences
// against a plain-map reference model and compares Walk, Len and VPNs after
// every op. Each op is four bytes: opcode, page selector (low nibble picks a
// fuzzVPNs entry, high nibble adds an offset, wrapping within 52 bits),
// frame, perms.
func FuzzTableOps(f *testing.F) {
	const (
		opMap = iota
		opUnmap
		opProtect
		opMarkNotPresent
	)
	f.Add([]byte{opMap, 15, 0xff, 0xff, opMap, 0, 1, 3})                     // VPN 2^52-1 (top PPN and perm bits set), then VPN 0
	f.Add([]byte{opMap, 2, 1, 3, opMap, 2, 9, 1})                            // remap of one page
	f.Add([]byte{opUnmap, 5, 0, 0, opProtect, 5, 0, 1, opMap, 5, 4, 3})      // missing entries
	f.Add([]byte{opMap, 9, 1, 3, opMarkNotPresent, 9, 0, 0, opMap, 9, 2, 3}) // reload after eviction
	f.Fuzz(func(t *testing.T, ops []byte) {
		tab := New()
		ref := map[uint64]PTE{}
		for i := 0; i+4 <= len(ops); i += 4 {
			op, sel, frame, perms := ops[i]%4, ops[i+1], ops[i+2], isa.Perm(ops[i+3])
			vpn := (fuzzVPNs[sel&15] + uint64(sel>>4)) & (1<<52 - 1)
			v := isa.VAddr(vpn<<isa.PageShift | uint64(frame)&isa.PageMask)
			ppn := uint64(frame)<<44 | uint64(frame)
			switch op {
			case opMap:
				tab.Map(v, isa.PAddr(ppn<<isa.PageShift), perms)
				ref[vpn] = PTE{PPN: ppn, Perms: perms, Present: true}
			case opUnmap:
				tab.Unmap(v)
				delete(ref, vpn)
			case opProtect:
				tab.Protect(v, perms)
				if e, ok := ref[vpn]; ok {
					e.Perms = perms
					ref[vpn] = e
				}
			case opMarkNotPresent:
				tab.MarkNotPresent(v)
				if e, ok := ref[vpn]; ok {
					e.Present = false
					ref[vpn] = e
				}
			}
			want, wantOK := ref[vpn]
			if got, ok := tab.Walk(v); got != want || ok != wantOK {
				t.Fatalf("op %d: Walk(%#x) = %+v, %v; want %+v, %v", i/4, vpn, got, ok, want, wantOK)
			}
			vpns := slices.Sorted(maps.Keys(ref))
			if got := tab.VPNs(); !slices.Equal(got, vpns) {
				t.Fatalf("op %d: VPNs = %#x, want %#x", i/4, got, vpns)
			}
			if tab.Len() != len(ref) {
				t.Fatalf("op %d: Len = %d, want %d", i/4, tab.Len(), len(ref))
			}
			for _, k := range vpns {
				if got, ok := tab.Walk(isa.VAddr(k << isa.PageShift)); !ok || got != ref[k] {
					t.Fatalf("op %d: Walk(%#x) = %+v, %v; want %+v", i/4, k, got, ok, ref[k])
				}
			}
		}
	})
}

// TestConcurrentWalkRemap walks pages while another goroutine remaps,
// protects and unmaps them, some in leaves created during the walk. Every
// walked entry must be one of the values written, never a torn mix.
func TestConcurrentWalkRemap(t *testing.T) {
	tab := New()
	a := PTE{PPN: 0x5_5555_5555_5555, Perms: isa.PermRW, Present: true}
	b := PTE{PPN: 0xa_aaaa_aaaa_aaaa, Perms: isa.PermX, Present: true}
	allowed := func(e PTE) bool {
		bNotPresent := b
		bNotPresent.Present = false
		return e == a || e == b || e == bNotPresent
	}
	const pages = 64
	vaddr := func(i int) isa.VAddr { return isa.VAddr(uint64(i)<<27|uint64(i)) << isa.PageShift }
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 0; round < 200; round++ {
			for i := 0; i < pages; i++ {
				v := vaddr(i)
				tab.Map(v, isa.PAddr(a.PPN<<isa.PageShift), a.Perms)
				tab.Map(v, isa.PAddr(b.PPN<<isa.PageShift), b.Perms)
				tab.MarkNotPresent(v)
				if round%2 == 0 {
					tab.Unmap(v)
				}
			}
		}
	}()
	for walking := true; walking; {
		select {
		case <-done:
			walking = false
		default:
		}
		for i := 0; i < pages; i++ {
			if e, ok := tab.Walk(vaddr(i)); ok && !allowed(e) {
				t.Fatalf("page %d: torn entry %+v", i, e)
			}
		}
	}
}

// TestMapOverwriteAllocs pins the steady-state write path: remapping a page
// whose leaf exists allocates nothing.
func TestMapOverwriteAllocs(t *testing.T) {
	tab := New()
	tab.Map(0x1000, 0x5000, isa.PermRW)
	if n := testing.AllocsPerRun(100, func() { tab.Map(0x1000, 0x6000, isa.PermR) }); n != 0 {
		t.Fatalf("Map over an existing page: %v allocs, want 0", n)
	}
}

// BenchmarkTableMap remaps resident pages of tables of growing size. A write
// is O(depth), so ns/op stays flat across sizes.
func BenchmarkTableMap(b *testing.B) {
	for _, n := range []int{1 << 10, 8 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("resident=%d", n), func(b *testing.B) {
			tab := New()
			base := isa.VAddr(0x7f00_0000_0000)
			for i := 0; i < n; i++ {
				tab.Map(base+isa.VAddr(i)<<isa.PageShift, isa.PAddr(i)<<isa.PageShift, isa.PermRW)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab.Map(base+isa.VAddr(i%n)<<isa.PageShift, isa.PAddr(i)<<isa.PageShift, isa.PermR)
			}
		})
	}
}
