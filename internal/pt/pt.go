// Package pt models the OS-controlled page tables of a process.
//
// Crucially, the page table is *untrusted*: SGX's threat model lets the
// kernel write arbitrary translations, remap enclave pages, alias two
// virtual pages to one frame, or mark pages non-present at will. The access
// validator (package sgx) re-checks every translation against the EPCM
// during TLB-miss handling precisely because nothing here can be trusted.
// The adversarial kernel in package kos manipulates these tables directly in
// the attack reproductions.
package pt

import (
	"iter"
	"sync"
	"sync/atomic"

	"nestedenclave/internal/isa"
)

// PTE is a page table entry.
type PTE struct {
	PPN     uint64
	Perms   isa.Perm
	Present bool
}

// Radix geometry: 9-bit levels, as in x86-64 paging, stacked six deep so the
// tree covers the whole 52-bit VPN of a 64-bit VAddr (the root uses only the
// low 7 of its 9 index bits).
const (
	levelBits = 9
	fanout    = 1 << levelBits
	levelMask = fanout - 1
)

// A leaf entry packs a PTE into one word so it is written in place with a
// single atomic store and never read torn: PPN in bits 0-51, perms in bits
// 52-59, present in bit 60, valid ("an entry exists") in bit 61.
const (
	ppnMask    = 1<<52 - 1
	permShift  = 52
	presentBit = 1 << 60
	validBit   = 1 << 61
)

func pack(e PTE) uint64 {
	w := e.PPN&ppnMask | uint64(e.Perms)<<permShift | validBit
	if e.Present {
		w |= presentBit
	}
	return w
}

func unpack(w uint64) PTE {
	return PTE{PPN: w & ppnMask, Perms: isa.Perm(w >> permShift), Present: w&presentBit != 0}
}

// leaf holds the entries of 512 consecutive virtual pages.
type leaf struct{ ptes [fanout]atomic.Uint64 }

// dir is an interior node whose children are of type T: another dir, or a
// leaf at the bottom level. Nesting the types fixes the depth at compile time.
type dir[T any] struct{ kids [fanout]atomic.Pointer[T] }

type rootDir = dir[dir[dir[dir[dir[leaf]]]]]

// next returns d's child covering vpn at the given level (1 = the level just
// above the leaves), or nil when d is nil or the child was never created.
func next[T any](d *dir[T], vpn uint64, level uint) *T {
	if d == nil {
		return nil
	}
	return d.kids[vpn>>(level*levelBits)&levelMask].Load()
}

// grow is next that creates the missing child. Writers only (under mu);
// the child is published fully zeroed, so a concurrent walk sees either no
// child or an empty one.
func grow[T any](d *dir[T], vpn uint64, level uint) *T {
	slot := &d.kids[vpn>>(level*levelBits)&levelMask]
	c := slot.Load()
	if c == nil {
		c = new(T)
		slot.Store(c)
	}
	return c
}

// Table is a radix page table for one address space, shaped like the
// hardware's: six levels of 512-way nodes, interior nodes created on demand
// and never freed. Walks happen on every TLB miss from any core while the
// kernel remaps or evicts pages from another, so readers take no lock: they
// follow atomically published child pointers down to a leaf and load the
// entry's single packed word. Writers — mmap/munmap/eviction — serialize on
// mu and update that word in place, so a write costs O(depth) regardless of
// how many pages are mapped.
type Table struct {
	mu   sync.Mutex // serializes writers (the kernel's mmap lock)
	root rootDir
	n    atomic.Int64 // entries with the valid bit set
}

// New creates an empty page table.
func New() *Table { return &Table{} }

// entry returns the leaf word for vpn, or nil when no leaf covers it.
func (t *Table) entry(vpn uint64) *atomic.Uint64 {
	l := next(next(next(next(next(&t.root, vpn, 5), vpn, 4), vpn, 3), vpn, 2), vpn, 1)
	if l == nil {
		return nil
	}
	return &l.ptes[vpn&levelMask]
}

// entryForWrite is entry creating the path down to the leaf. Caller holds mu.
func (t *Table) entryForWrite(vpn uint64) *atomic.Uint64 {
	l := grow(grow(grow(grow(grow(&t.root, vpn, 5), vpn, 4), vpn, 3), vpn, 2), vpn, 1)
	return &l.ptes[vpn&levelMask]
}

// update rewrites the existing entry for v with f; missing entries are left
// alone.
func (t *Table) update(v isa.VAddr, f func(PTE) PTE) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if w := t.entry(v.VPN()); w != nil {
		if old := w.Load(); old&validBit != 0 {
			w.Store(pack(f(unpack(old))))
		}
	}
}

// Map installs a translation from the virtual page containing v to the
// physical page containing p with the given permissions.
func (t *Table) Map(v isa.VAddr, p isa.PAddr, perms isa.Perm) {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.entryForWrite(v.VPN())
	if w.Swap(pack(PTE{PPN: p.PPN(), Perms: perms, Present: true}))&validBit == 0 {
		t.n.Add(1)
	}
}

// Unmap removes the translation for the virtual page containing v.
func (t *Table) Unmap(v isa.VAddr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if w := t.entry(v.VPN()); w != nil && w.Swap(0)&validBit != 0 {
		t.n.Add(-1)
	}
}

// MarkNotPresent keeps the entry but clears its present bit (the state the
// kernel sets while an EPC page is evicted).
func (t *Table) MarkNotPresent(v isa.VAddr) {
	t.update(v, func(e PTE) PTE { e.Present = false; return e })
}

// Protect changes the permissions of an existing mapping.
func (t *Table) Protect(v isa.VAddr, perms isa.Perm) {
	t.update(v, func(e PTE) PTE { e.Perms = perms; return e })
}

// Walk performs the page-table walk for v. ok is false when no entry exists;
// a present=false entry is returned with ok true so the fault handler can
// distinguish "never mapped" from "paged out".
func (t *Table) Walk(v isa.VAddr) (PTE, bool) {
	w := t.entry(v.VPN())
	if w == nil {
		return PTE{}, false
	}
	x := w.Load()
	if x&validBit == 0 {
		return PTE{}, false
	}
	return unpack(x), true
}

// Lookup returns the present translation for v, if any.
func (t *Table) Lookup(v isa.VAddr) (PTE, bool) {
	e, ok := t.Walk(v)
	if !ok || !e.Present {
		return PTE{}, false
	}
	return e, true
}

// Translate resolves a full virtual address to a physical address using the
// present mapping, preserving the page offset.
func (t *Table) Translate(v isa.VAddr) (isa.PAddr, bool) {
	e, ok := t.Lookup(v)
	if !ok {
		return 0, false
	}
	return isa.PAddr(e.PPN<<isa.PageShift | v.Offset()), true
}

// Len returns the number of entries (present or not).
func (t *Table) Len() int { return int(t.n.Load()) }

// VPNs returns all mapped virtual page numbers in ascending order (for
// audits). It holds mu, so the result is a consistent snapshot.
func (t *Table) VPNs() []uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]uint64, 0, t.n.Load())
	for p4, d4 := range children(&t.root, 0) {
		for p3, d3 := range children(d4, p4) {
			for p2, d2 := range children(d3, p3) {
				for p1, d1 := range children(d2, p2) {
					for p0, l := range children(d1, p1) {
						for i := range l.ptes {
							if l.ptes[i].Load()&validBit != 0 {
								out = append(out, p0<<levelBits|uint64(i))
							}
						}
					}
				}
			}
		}
	}
	return out
}

// children yields d's existing children in index order, each with its VPN
// prefix (the parent's prefix extended by the child's index).
func children[T any](d *dir[T], prefix uint64) iter.Seq2[uint64, *T] {
	return func(yield func(uint64, *T) bool) {
		for i := range d.kids {
			if c := d.kids[i].Load(); c != nil && !yield(prefix<<levelBits|uint64(i), c) {
				return
			}
		}
	}
}
