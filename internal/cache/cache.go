// Package cache models the processor's last-level cache as a set-associative
// write-back cache holding plaintext cachelines.
//
// Its role in the simulation is architectural, not micro-architectural: data
// resident in the cache lives inside the CPU package boundary in plaintext,
// so reads and writes that hit skip the memory encryption engine entirely.
// This is the mechanism behind the paper's Figure 11 — the outer-enclave
// communication channel runs at cache speed while the footprint fits in the
// LLC, because "the encryption by MEE is not invoked as the data exist in
// plaintext within the CPU boundary".
package cache

import (
	"fmt"
	"sync"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/trace"
)

// Backend is the next level of the memory hierarchy (the MEE in front of
// DRAM). Lines crossing it are subject to protection.
type Backend interface {
	// ReadLine fetches the 64-byte line at the (line-aligned) address.
	// It may return an integrity fault. The returned slice may be backend
	// scratch that stays valid across WriteLine calls but only until the
	// next ReadLine, so callers copy out of it and never write to it.
	ReadLine(p isa.PAddr) ([]byte, error)
	// WriteLine stores the 64-byte line at the (line-aligned) address.
	WriteLine(p isa.PAddr, data []byte) error
}

type line struct {
	tag   uint64 // line index (paddr >> LineShift)
	valid bool
	dirty bool
	lru   uint64
	data  [isa.LineSize]byte
}

// Config sizes the cache.
type Config struct {
	// SizeBytes is the total capacity. Must be a multiple of Ways*LineSize.
	SizeBytes int
	// Ways is the associativity.
	Ways int
}

// DefaultConfig models the 8 MiB 16-way LLC of the paper's i7-7700 testbed.
func DefaultConfig() Config { return Config{SizeBytes: 8 << 20, Ways: 16} }

// Cache is a set-associative write-back LLC. Safe for concurrent use: the
// machine's data-access path runs under a shared (read) lock so cores
// translate in parallel, and the cache — the one mutable structure on that
// path — serializes line operations internally. The MEE backend is only
// reachable through here or under the machine's exclusive lock, so the
// internal mutex covers it too.
type Cache struct {
	mu      sync.Mutex
	backend Backend
	rec     *trace.Recorder
	sets    [][]line
	nsets   uint64
	tick    uint64

	// Enabled can be cleared to model an uncached (write-through to MEE)
	// path; used by ablation benches. Set before workloads run.
	Enabled bool
}

// New builds a cache over the backend. rec may be nil.
func New(cfg Config, backend Backend, rec *trace.Recorder) (*Cache, error) {
	if cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		return nil, fmt.Errorf("cache: invalid config %+v", cfg)
	}
	lines := cfg.SizeBytes / isa.LineSize
	if lines%cfg.Ways != 0 {
		return nil, fmt.Errorf("cache: size %d not divisible into %d ways", cfg.SizeBytes, cfg.Ways)
	}
	nsets := lines / cfg.Ways
	if nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", nsets)
	}
	sets := make([][]line, nsets)
	backing := make([]line, lines)
	for i := range sets {
		sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	return &Cache{backend: backend, rec: rec, sets: sets, nsets: uint64(nsets), Enabled: true}, nil
}

// MustNew is New for known-good configs.
func MustNew(cfg Config, backend Backend, rec *trace.Recorder) *Cache {
	c, err := New(cfg, backend, rec)
	if err != nil {
		panic(err)
	}
	return c
}

// charge bills LLC hits/misses to the enclave the access path named via
// SetBillHint — the cache itself runs below the protection context.
func (c *Cache) charge(e trace.Event, cost int64) {
	if c.rec != nil {
		c.rec.ChargeHint(e, cost)
	}
}

// lookup returns the way holding the line index, or nil.
func (c *Cache) lookup(idx uint64) *line {
	set := c.sets[idx&(c.nsets-1)]
	for i := range set {
		if set[i].valid && set[i].tag == idx {
			return &set[i]
		}
	}
	return nil
}

// victim picks the LRU way in the line's set, writing it back if dirty.
func (c *Cache) victim(idx uint64) (*line, error) {
	set := c.sets[idx&(c.nsets-1)]
	v := &set[0]
	for i := range set {
		if !set[i].valid {
			v = &set[i]
			break
		}
		if set[i].lru < v.lru {
			v = &set[i]
		}
	}
	if v.valid && v.dirty {
		if err := c.backend.WriteLine(isa.PAddr(v.tag<<isa.LineShift), v.data[:]); err != nil {
			return nil, err
		}
	}
	v.valid = false
	v.dirty = false
	return v, nil
}

// fill brings the line at idx into the cache and returns it.
func (c *Cache) fill(idx uint64) (*line, error) {
	data, err := c.backend.ReadLine(isa.PAddr(idx << isa.LineShift))
	if err != nil {
		return nil, err
	}
	v, err := c.victim(idx)
	if err != nil {
		return nil, err
	}
	v.tag = idx
	v.valid = true
	copy(v.data[:], data)
	return v, nil
}

func (c *Cache) access(p isa.PAddr, write bool) (*line, error) {
	idx := uint64(p) >> isa.LineShift
	if !c.Enabled {
		// Uncached mode: synthesize a transient line per access.
		data, err := c.backend.ReadLine(p.LineBase())
		if err != nil {
			return nil, err
		}
		l := &line{tag: idx, valid: true}
		copy(l.data[:], data)
		return l, nil
	}
	c.tick++
	if l := c.lookup(idx); l != nil {
		c.charge(trace.EvLLCHit, trace.CostLLCHit)
		l.lru = c.tick
		if write {
			l.dirty = true
		}
		return l, nil
	}
	c.charge(trace.EvLLCMiss, trace.CostDRAMAccess)
	l, err := c.fill(idx)
	if err != nil {
		return nil, err
	}
	l.lru = c.tick
	if write {
		l.dirty = true
	}
	return l, nil
}

// Read copies n bytes at physical address p through the cache.
func (c *Cache) Read(p isa.PAddr, n int) ([]byte, error) {
	out := make([]byte, n)
	if err := c.ReadInto(p, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto fills dst from physical address p through the cache.
func (c *Cache) ReadInto(p isa.PAddr, dst []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.readIntoLocked(p, dst)
}

// ReadIntoFor is ReadInto with the billing context set atomically with the
// line operations: the hit/miss and MEE charges bill to eid and parent under
// the span, even while other cores drive the cache concurrently. This is the
// read-locked access path's entry point.
func (c *Cache) ReadIntoFor(p isa.PAddr, dst []byte, eid uint64, span uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rec != nil {
		c.rec.SetBillHint(eid)
		c.rec.SetSpanHint(span)
	}
	return c.readIntoLocked(p, dst)
}

func (c *Cache) readIntoLocked(p isa.PAddr, dst []byte) error {
	for off := 0; off < len(dst); {
		cur := p + isa.PAddr(off)
		l, err := c.access(cur, false)
		if err != nil {
			return err
		}
		lo := int(cur.Offset() & isa.LineMask)
		nn := copy(dst[off:], l.data[lo:])
		off += nn
	}
	return nil
}

// Write stores b at physical address p through the cache.
func (c *Cache) Write(p isa.PAddr, b []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writeLocked(p, b)
}

// WriteFor is Write with the billing context set atomically with the line
// operations (see ReadIntoFor).
func (c *Cache) WriteFor(p isa.PAddr, b []byte, eid uint64, span uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rec != nil {
		c.rec.SetBillHint(eid)
		c.rec.SetSpanHint(span)
	}
	return c.writeLocked(p, b)
}

func (c *Cache) writeLocked(p isa.PAddr, b []byte) error {
	for off := 0; off < len(b); {
		cur := p + isa.PAddr(off)
		l, err := c.access(cur, true)
		if err != nil {
			return err
		}
		lo := int(cur.Offset() & isa.LineMask)
		nn := copy(l.data[lo:], b[off:])
		if !c.Enabled {
			// Uncached: write through immediately.
			if err := c.backend.WriteLine(cur.LineBase(), l.data[:]); err != nil {
				return err
			}
		}
		off += nn
	}
	return nil
}

// FlushAll writes back every dirty line and invalidates the cache (WBINVD).
func (c *Cache) FlushAll() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for si := range c.sets {
		for wi := range c.sets[si] {
			l := &c.sets[si][wi]
			if l.valid && l.dirty {
				if err := c.backend.WriteLine(isa.PAddr(l.tag<<isa.LineShift), l.data[:]); err != nil {
					return err
				}
			}
			l.valid = false
			l.dirty = false
		}
	}
	return nil
}

// FlushLine writes back and invalidates the line containing p (CLFLUSH).
func (c *Cache) FlushLine(p isa.PAddr) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushLineLocked(p)
}

func (c *Cache) flushLineLocked(p isa.PAddr) error {
	l := c.lookup(uint64(p) >> isa.LineShift)
	if l == nil {
		return nil
	}
	if l.dirty {
		if err := c.backend.WriteLine(p.LineBase(), l.data[:]); err != nil {
			return err
		}
	}
	l.valid = false
	l.dirty = false
	return nil
}

// InvalidateRange drops every line overlapping [p, p+n) WITHOUT writing
// dirty data back — the path used when the underlying page is being
// destroyed and its contents must not be recreated in DRAM.
func (c *Cache) InvalidateRange(p isa.PAddr, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for cur := p.LineBase(); cur < p+isa.PAddr(n); cur += isa.LineSize {
		if l := c.lookup(uint64(cur) >> isa.LineShift); l != nil {
			l.valid = false
			l.dirty = false
		}
	}
}

// FlushRange flushes every line overlapping [p, p+n).
func (c *Cache) FlushRange(p isa.PAddr, n int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for cur := p.LineBase(); cur < p+isa.PAddr(n); cur += isa.LineSize {
		if err := c.flushLineLocked(cur); err != nil {
			return err
		}
	}
	return nil
}

// Stats reports occupancy for tests.
func (c *Cache) Stats() (validLines, dirtyLines int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for si := range c.sets {
		for wi := range c.sets[si] {
			if c.sets[si][wi].valid {
				validLines++
				if c.sets[si][wi].dirty {
					dirtyLines++
				}
			}
		}
	}
	return
}
