// Package model is a reference oracle of the nested-enclave security model:
// an independent, deliberately naive re-implementation of the state the
// paper's argument rests on — EPCM ownership, ELRANGE containment, the
// OuterEIDs/InnerEIDs association lattice, TCS occupancy, per-core TLB
// residency, and the eviction shootdown sets — written with nothing but maps
// and loops so that its correctness is checkable by eye.
//
// The oracle exists to be diffed against the real machine (internal/sgx +
// internal/core) by the lockstep harness in internal/simtest: both sides are
// driven through the same operation sequence and every access verdict, fault
// class, TLB fill/flush, and shootdown set must agree. The oracle therefore
// mirrors the *observable* semantics of the machine exactly, but shares none
// of its code and none of its performance machinery (no cache, no MEE, no
// cost model, no locks — it is single-goroutine by construction).
//
// Package model depends only on internal/isa. In particular it must never
// import internal/sgx or internal/core: a shared helper would let one bug
// hide in both implementations.
package model

import (
	"fmt"
	"sort"

	"nestedenclave/internal/isa"
)

// Verdict is the oracle's prediction for one operation.
type Verdict uint8

const (
	// VOK: the operation succeeds (for accesses: the translation is allowed
	// and inserted into the TLB).
	VOK Verdict = iota
	// VAbort: abort-page semantics — reads all-ones, writes dropped,
	// fetches fault.
	VAbort
	// VPF: a page fault is raised.
	VPF
	// VGP: a general-protection fault is raised.
	VGP
)

func (v Verdict) String() string {
	switch v {
	case VOK:
		return "ok"
	case VAbort:
		return "abort"
	case VPF:
		return "#PF"
	case VGP:
		return "#GP"
	}
	return fmt.Sprintf("verdict(%d)", uint8(v))
}

// PTE is the untrusted page-table input to an access prediction. The oracle
// does not model page tables — in the threat model they are attacker-chosen,
// so the harness passes whatever the kernel (or the attack op) installed.
type PTE struct {
	Mapped  bool // a PTE exists for the vpn
	Present bool
	PPN     uint64
	Perms   isa.Perm
}

// TLBEntry is one cached translation in the oracle's TLB model.
type TLBEntry struct {
	PPN   uint64
	Perms isa.Perm
}

// Config sizes the oracle to match the machine under test.
type Config struct {
	Cores   int
	PRMBase uint64 // also the EPC base, as in epc.NewManager
	PRMSize uint64
	// MaxDepth and MultiOuter mirror core.Config.
	MaxDepth   int
	MultiOuter bool
}

// Page is one EPCM entry. The zero value is a free page.
type Page struct {
	Valid   bool
	Blocked bool
	Type    isa.PageType
	Owner   isa.EID
	Vaddr   uint64 // page base
	Perms   isa.Perm
}

// Enclave is the oracle's view of one SECS.
type Enclave struct {
	EID         isa.EID
	Base, Size  uint64
	Initialized bool
	Outers      []isa.EID
	Inners      []isa.EID
	// TCS occupancy, by TCS index (the harness addresses TCSs by index, not
	// by virtual address).
	TCS []*TCS
}

// contains reports whether the vpn lies in ELRANGE.
func (e *Enclave) contains(vpn uint64) bool {
	return vpn >= e.Base>>isa.PageShift && vpn < (e.Base+e.Size)>>isa.PageShift
}

// Frame names an execution frame: an enclave plus the TCS it entered through.
type Frame struct {
	EID isa.EID
	TCS int
}

// TCS mirrors the machine's thread control structure state: whether it is
// claimed, the suspended outer frame of a nested entry, and the state saved
// by an asynchronous exit.
type TCS struct {
	Busy bool
	// Ret is the suspended outer frame (non-nil exactly while a nested entry
	// through this TCS is live or ocall-suspended).
	Ret *Frame
	// SSA is the interrupted frame saved by AEX, consumed by ERESUME.
	SSA *Frame
}

// CoreState is the oracle's view of one logical processor.
type CoreState struct {
	In  bool
	Cur Frame // meaningful only while In
	TLB map[uint64]TLBEntry
}

// Oracle is the reference model. All methods are single-goroutine.
type Oracle struct {
	cfg      Config
	nextEID  isa.EID
	pages    map[int]*Page
	enclaves map[isa.EID]*Enclave
	cores    []*CoreState

	// Paging freshness ledger: the oracle's ground truth a lying kernel
	// cannot rewrite. blobVer is the monotonic eviction counter per
	// (owner, vaddr) lane; blobOut marks that the current version's blob is
	// outstanding (evicted and not yet reloaded). ELD verdicts depend on
	// both, so they are part of canonical state.
	blobVer map[BlobKey]uint64
	blobOut map[BlobKey]bool
}

// BlobKey identifies one paging-freshness lane: an (owner, page base) pair.
type BlobKey struct {
	Owner isa.EID
	Vaddr uint64
}

// New creates an oracle for a machine of the given shape.
func New(cfg Config) *Oracle {
	o := &Oracle{
		cfg:      cfg,
		nextEID:  1,
		pages:    make(map[int]*Page),
		enclaves: make(map[isa.EID]*Enclave),
		blobVer:  make(map[BlobKey]uint64),
		blobOut:  make(map[BlobKey]bool),
	}
	for i := 0; i < cfg.Cores; i++ {
		o.cores = append(o.cores, &CoreState{TLB: make(map[uint64]TLBEntry)})
	}
	return o
}

// --- introspection (for diffing against the machine) ---

// Enclave returns the oracle's record for eid, if any.
func (o *Oracle) Enclave(eid isa.EID) (*Enclave, bool) {
	e, ok := o.enclaves[eid]
	return e, ok
}

// Core returns core i's state.
func (o *Oracle) Core(i int) *CoreState { return o.cores[i] }

// InEnclave reports whether core i executes in enclave mode.
func (o *Oracle) InEnclave(i int) bool { return o.cores[i].In }

// CurEID returns the enclave core i runs, or NoEnclave.
func (o *Oracle) CurEID(i int) isa.EID {
	if !o.cores[i].In {
		return isa.NoEnclave
	}
	return o.cores[i].Cur.EID
}

// TLB returns core i's modeled TLB (vpn -> entry). The caller must not
// mutate it.
func (o *Oracle) TLB(i int) map[uint64]TLBEntry { return o.cores[i].TLB }

// Page returns the EPCM entry for EPC page idx (nil if free).
func (o *Oracle) Page(idx int) *Page {
	p := o.pages[idx]
	if p == nil || !p.Valid {
		return nil
	}
	return p
}

// pageAddr returns the physical base address of EPC page idx, mirroring
// epc.Manager.AddrOf: the EPC occupies the PRM from its base.
func (o *Oracle) pageAddr(idx int) uint64 {
	return o.cfg.PRMBase + uint64(idx)*isa.PageSize
}

// inPRM reports whether the physical page at pa lies in PRM.
func (o *Oracle) inPRM(pa uint64) bool {
	base := pa &^ uint64(isa.PageMask)
	return base >= o.cfg.PRMBase && base < o.cfg.PRMBase+o.cfg.PRMSize
}

// pageAt returns the EPCM entry governing physical address pa.
func (o *Oracle) pageAt(pa uint64) *Page {
	if pa < o.cfg.PRMBase {
		return nil
	}
	idx := int((pa - o.cfg.PRMBase) >> isa.PageShift)
	if idx >= int(o.cfg.PRMSize/isa.PageSize) {
		return nil
	}
	return o.pages[idx]
}

// outerClosure returns every enclave reachable by following Outers links
// from e, breadth-first, cycles guarded — the region an inner enclave may
// additionally access.
func (o *Oracle) outerClosure(e *Enclave) []*Enclave {
	var out []*Enclave
	seen := map[isa.EID]bool{e.EID: true}
	frontier := []*Enclave{e}
	for len(frontier) > 0 {
		next := frontier[0]
		frontier = frontier[1:]
		for _, oe := range next.Outers {
			if seen[oe] {
				continue
			}
			seen[oe] = true
			oo, ok := o.enclaves[oe]
			if !ok {
				continue
			}
			out = append(out, oo)
			frontier = append(frontier, oo)
		}
	}
	return out
}

// --- lifecycle ---

// ECreate records a new enclave and returns its identity. The harness passes
// the SECS page index the machine allocated.
func (o *Oracle) ECreate(secsPage int, base, size uint64) (isa.EID, Verdict) {
	if base&isa.PageMask != 0 || size == 0 || size&isa.PageMask != 0 {
		return isa.NoEnclave, VGP
	}
	eid := o.nextEID
	o.nextEID++
	o.enclaves[eid] = &Enclave{EID: eid, Base: base, Size: size}
	o.pages[secsPage] = &Page{Valid: true, Type: isa.PTSECS, Owner: eid}
	return eid, VOK
}

// EAdd records one page added to an uninitialized enclave at the EPC page
// index the machine allocated.
func (o *Oracle) EAdd(eid isa.EID, page int, vaddr uint64, t isa.PageType, perms isa.Perm) Verdict {
	e, ok := o.enclaves[eid]
	if !ok || e.Initialized {
		return VGP
	}
	if vaddr&isa.PageMask != 0 {
		return VGP
	}
	if vaddr < e.Base || vaddr+isa.PageSize > e.Base+e.Size {
		return VGP
	}
	switch t {
	case isa.PTReg:
		// author perms as given
	case isa.PTTCS:
		perms = 0
		e.TCS = append(e.TCS, &TCS{})
	default:
		return VGP
	}
	o.pages[page] = &Page{Valid: true, Type: t, Owner: eid, Vaddr: vaddr, Perms: perms}
	return VOK
}

// EInit finalizes the enclave. Measurement checking is the harness's job
// (it always builds matching certificates); the oracle models the state
// transition and the double-init rejection.
func (o *Oracle) EInit(eid isa.EID) Verdict {
	e, ok := o.enclaves[eid]
	if !ok || e.Initialized {
		return VGP
	}
	e.Initialized = true
	return VOK
}

// --- association (NASSO) ---

// NASSO associates inner with outer, mirroring the instruction's structural
// checks: both initialized, not already associated, single-outer unless the
// lattice extension is on, no cycle, depth bound, no ELRANGE overlap with
// the outer or any of its transitive outers. Certificate checks are assumed
// satisfied (the harness signs all pairs mutually).
func (o *Oracle) NASSO(inner, outer isa.EID) Verdict {
	in, okI := o.enclaves[inner]
	out, okO := o.enclaves[outer]
	if !okI || !okO || inner == outer {
		return VGP
	}
	if !in.Initialized || !out.Initialized {
		return VGP
	}
	for _, oe := range in.Outers {
		if oe == outer {
			return VGP // already associated
		}
	}
	if len(in.Outers) > 0 && !o.cfg.MultiOuter {
		return VGP
	}
	for _, anc := range o.outerClosure(out) {
		if anc.EID == inner {
			return VGP // cycle
		}
	}
	if o.cfg.MaxDepth > 0 {
		if o.depthOf(out)+o.innerHeight(in, map[isa.EID]bool{}) > o.cfg.MaxDepth {
			return VGP
		}
	}
	for _, cand := range append(o.outerClosure(out), out) {
		if in.Base < cand.Base+cand.Size && cand.Base < in.Base+in.Size {
			return VGP // ELRANGE overlap
		}
	}
	// Quiescence: no core may be executing the inner or any of its
	// transitive inners — their accessible-region set would change under a
	// TLB filled against the old lattice (see core/nasso.go).
	for _, aff := range append(o.innerClosure(in), in) {
		for _, c := range o.cores {
			if c.In && c.Cur.EID == aff.EID {
				return VGP
			}
		}
	}
	in.Outers = append(in.Outers, outer)
	out.Inners = append(out.Inners, inner)
	return VOK
}

// innerClosure returns the transitive inner enclaves of e (excluding e).
func (o *Oracle) innerClosure(e *Enclave) []*Enclave {
	var out []*Enclave
	seen := map[isa.EID]bool{e.EID: true}
	frontier := []*Enclave{e}
	for len(frontier) > 0 {
		next := frontier[0]
		frontier = frontier[1:]
		for _, ie := range next.Inners {
			if seen[ie] {
				continue
			}
			seen[ie] = true
			io, ok := o.enclaves[ie]
			if !ok {
				continue
			}
			out = append(out, io)
			frontier = append(frontier, io)
		}
	}
	return out
}

// depthOf returns the nesting depth of e: 1 for a top-level enclave, the
// longest outer path otherwise.
func (o *Oracle) depthOf(e *Enclave) int {
	return o.depthOfRec(e, map[isa.EID]bool{})
}

func (o *Oracle) depthOfRec(e *Enclave, visiting map[isa.EID]bool) int {
	if visiting[e.EID] {
		return 1
	}
	visiting[e.EID] = true
	defer delete(visiting, e.EID)
	max := 0
	for _, oe := range e.Outers {
		if oo, ok := o.enclaves[oe]; ok {
			if d := o.depthOfRec(oo, visiting); d > max {
				max = d
			}
		}
	}
	return max + 1
}

// innerHeight returns the height of the inner tree rooted at e (1 for a
// leaf).
func (o *Oracle) innerHeight(e *Enclave, visiting map[isa.EID]bool) int {
	if visiting[e.EID] {
		return 1
	}
	visiting[e.EID] = true
	defer delete(visiting, e.EID)
	max := 0
	for _, ie := range e.Inners {
		if in, ok := o.enclaves[ie]; ok {
			if h := o.innerHeight(in, visiting); h > max {
				max = h
			}
		}
	}
	return max + 1
}

// --- transitions ---

func (o *Oracle) tcs(f Frame) *TCS {
	e := o.enclaves[f.EID]
	if e == nil || f.TCS < 0 || f.TCS >= len(e.TCS) {
		return nil
	}
	return e.TCS[f.TCS]
}

func (o *Oracle) flush(core int) {
	clear(o.cores[core].TLB)
}

// EEnter models EENTER. With resume=false the TCS must be idle; with
// resume=true it must be claimed (the ocall-return path).
func (o *Oracle) EEnter(core int, eid isa.EID, tcsIdx int, resume bool) Verdict {
	c := o.cores[core]
	if c.In {
		return VGP
	}
	e, ok := o.enclaves[eid]
	if !ok || !e.Initialized {
		return VGP
	}
	t := o.tcs(Frame{eid, tcsIdx})
	if t == nil {
		return VGP
	}
	if resume {
		if !t.Busy {
			return VGP
		}
	} else {
		if t.Busy || t.Ret != nil {
			return VGP
		}
		t.Busy = true
	}
	o.flush(core)
	c.In = true
	c.Cur = Frame{eid, tcsIdx}
	return VOK
}

// EExit models EEXIT. release frees the TCS (final ecall return); a release
// exit with a suspended nested frame is a #GP.
func (o *Oracle) EExit(core int, release bool) Verdict {
	c := o.cores[core]
	if !c.In {
		return VGP
	}
	t := o.tcs(c.Cur)
	if release {
		if t.Ret != nil {
			return VGP
		}
		t.Busy = false
	}
	o.flush(core)
	c.In = false
	return VOK
}

// AEX models an asynchronous exit: the current frame is saved into the TCS's
// state-save area and the core drops to non-enclave mode.
func (o *Oracle) AEX(core int) Verdict {
	c := o.cores[core]
	if !c.In {
		return VGP
	}
	t := o.tcs(c.Cur)
	cur := c.Cur
	t.SSA = &cur
	o.flush(core)
	c.In = false
	return VOK
}

// EResume models ERESUME through the given TCS.
func (o *Oracle) EResume(core int, eid isa.EID, tcsIdx int) Verdict {
	c := o.cores[core]
	if c.In {
		return VGP
	}
	t := o.tcs(Frame{eid, tcsIdx})
	if t == nil || t.SSA == nil {
		return VGP
	}
	f := *t.SSA
	t.SSA = nil
	o.flush(core)
	c.In = true
	c.Cur = f
	return VOK
}

// NEEnter models NEENTER: a direct transition to an associated enclave
// (inner of the current one, or one of its outers), claiming the target TCS
// and suspending the current frame into it.
func (o *Oracle) NEEnter(core int, target isa.EID, tcsIdx int) Verdict {
	c := o.cores[core]
	if !c.In {
		return VGP
	}
	cur := o.enclaves[c.Cur.EID]
	tgt, ok := o.enclaves[target]
	if !ok || !tgt.Initialized {
		return VGP
	}
	assoc := false
	for _, ie := range cur.Inners {
		if ie == target {
			assoc = true
		}
	}
	for _, oe := range cur.Outers {
		if oe == target {
			assoc = true
		}
	}
	if !assoc {
		return VGP
	}
	t := o.tcs(Frame{target, tcsIdx})
	if t == nil || t.Busy {
		return VGP
	}
	prev := c.Cur
	t.Ret = &prev
	t.Busy = true
	o.flush(core)
	c.Cur = Frame{target, tcsIdx}
	return VOK
}

// NEExit models NEEXIT: return to the suspended outer frame, releasing the
// inner TCS.
func (o *Oracle) NEExit(core int) Verdict {
	c := o.cores[core]
	if !c.In {
		return VGP
	}
	t := o.tcs(c.Cur)
	if t == nil || t.Ret == nil {
		return VGP
	}
	f := *t.Ret
	t.Ret = nil
	t.Busy = false
	o.flush(core)
	c.Cur = f
	return VOK
}

// ExecutingEIDs returns the enclaves with live context on the core: the
// current one plus every suspended outer frame, innermost first.
func (o *Oracle) ExecutingEIDs(core int) []isa.EID {
	c := o.cores[core]
	if !c.In {
		return nil
	}
	out := []isa.EID{c.Cur.EID}
	for t := o.tcs(c.Cur); t != nil && t.Ret != nil; {
		out = append(out, t.Ret.EID)
		t = o.tcs(*t.Ret)
	}
	return out
}

// --- access validation (the Figure-6 reference flow) ---

// Access predicts the verdict for a memory access, consulting and (on
// success) filling the oracle's TLB, mirroring the machine's TLB-miss
// handling: a hit whose permissions admit the access skips validation.
func (o *Oracle) Access(core int, vaddr uint64, pte PTE, op isa.Access) Verdict {
	c := o.cores[core]
	vpn := vaddr >> isa.PageShift
	if e, ok := c.TLB[vpn]; ok && e.Perms.Allows(op) {
		return VOK
	}
	v, entry := o.Validate(core, vaddr, pte, op)
	if v == VOK {
		c.TLB[vpn] = entry
	}
	return v
}

// Validate is the pure Figure-6 access-validation flow: no TLB consulted,
// no state changed. It returns the verdict and, for VOK, the TLB entry that
// would be inserted.
func (o *Oracle) Validate(core int, vaddr uint64, pte PTE, op isa.Access) (Verdict, TLBEntry) {
	c := o.cores[core]
	none := TLBEntry{}
	if !pte.Mapped || !pte.Present {
		return VPF, none
	}
	if !pte.Perms.Allows(op) {
		return VPF, none
	}
	pa := pte.PPN << isa.PageShift
	vpn := vaddr >> isa.PageShift

	// Non-enclave execution never touches PRM.
	if !c.In {
		if o.inPRM(pa) {
			return VAbort, none
		}
		return VOK, TLBEntry{PPN: pte.PPN, Perms: pte.Perms}
	}

	s := o.enclaves[c.Cur.EID]

	// Physical page inside PRM: the EPCM entry decides.
	if o.inPRM(pa) {
		ent := o.pageAt(pa)
		if ent == nil || !ent.Valid {
			return VAbort, none
		}
		if ent.Blocked {
			return VPF, none
		}
		if ent.Type != isa.PTReg {
			return VAbort, none
		}
		if ent.Owner == s.EID {
			if ent.Vaddr != vaddr&^uint64(isa.PageMask) {
				return VAbort, none
			}
			eff := ent.Perms & pte.Perms
			if !eff.Allows(op) {
				return VPF, none
			}
			return VOK, TLBEntry{PPN: pte.PPN, Perms: eff}
		}
		// Nested branch: re-validate against the outer closure.
		for _, outer := range o.outerClosure(s) {
			if ent.Owner != outer.EID {
				continue
			}
			if ent.Vaddr != vaddr&^uint64(isa.PageMask) || !outer.contains(vpn) {
				return VAbort, none
			}
			eff := ent.Perms & pte.Perms
			if !eff.Allows(op) {
				return VPF, none
			}
			return VOK, TLBEntry{PPN: pte.PPN, Perms: eff}
		}
		// Peer inner, unrelated enclave, or attacker mapping.
		return VAbort, none
	}

	// Physical page outside PRM.
	if s.contains(vpn) {
		return VPF, none // ELRANGE page not backed by EPC (evicted)
	}
	for _, outer := range o.outerClosure(s) {
		if outer.contains(vpn) {
			return VPF, none // outer ELRANGE page not backed (evicted)
		}
	}
	perms := pte.Perms &^ isa.PermX
	if !perms.Allows(op) {
		return VPF, none
	}
	return VOK, TLBEntry{PPN: pte.PPN, Perms: perms}
}

// --- paging ---

// EBlock marks an EPC page blocked for eviction.
func (o *Oracle) EBlock(page int) Verdict {
	p := o.pages[page]
	if p == nil || !p.Valid {
		return VGP
	}
	if p.Type == isa.PTSECS {
		return VGP
	}
	p.Blocked = true
	return VOK
}

// ShootdownSet returns the cores whose TLBs may hold stale translations for
// enclave eid: those with live context in eid itself or in any enclave whose
// outer closure contains eid (the §IV-E inner-aware tracking).
func (o *Oracle) ShootdownSet(eid isa.EID) []int {
	var out []int
	for i := range o.cores {
		if o.coreTouches(i, eid) {
			out = append(out, i)
		}
	}
	return out
}

func (o *Oracle) coreTouches(core int, eid isa.EID) bool {
	for _, e := range o.ExecutingEIDs(core) {
		if e == eid {
			return true
		}
		if s, ok := o.enclaves[e]; ok {
			for _, anc := range o.outerClosure(s) {
				if anc.EID == eid {
					return true
				}
			}
		}
	}
	return false
}

// Shootdown flushes core i's TLB (the shootdown IPI's effect).
func (o *Oracle) Shootdown(core int) { o.flush(core) }

// EWB evicts a blocked page: it must be valid, blocked, and unreferenced by
// every TLB in the system — the machine's conservative check that catches a
// broken shootdown protocol. On VOK the EPCM entry is freed.
func (o *Oracle) EWB(page int) Verdict {
	p := o.pages[page]
	if p == nil || !p.Valid {
		return VGP
	}
	if !p.Blocked {
		return VGP
	}
	ppn := o.pageAddr(page) >> isa.PageShift
	for _, c := range o.cores {
		for _, e := range c.TLB {
			if e.PPN == ppn {
				return VGP // incomplete shootdown
			}
		}
	}
	key := BlobKey{Owner: p.Owner, Vaddr: p.Vaddr}
	o.blobVer[key]++
	o.blobOut[key] = true
	delete(o.pages, page)
	return VOK
}

// ELD reloads an evicted page at the EPC index the machine allocated,
// auditing the kernel's claim against the oracle's own freshness ledger: the
// presented version must be the current counter for its lane AND that blob
// must still be outstanding. A kernel replaying a stale or already-consumed
// blob gets VGP no matter what it claims — the oracle cannot be fooled by
// kernel lies because it never reads kernel state.
func (o *Oracle) ELD(owner isa.EID, page int, vaddr uint64, t isa.PageType, perms isa.Perm, version uint64) Verdict {
	key := BlobKey{Owner: owner, Vaddr: vaddr}
	if version != o.blobVer[key] || !o.blobOut[key] {
		return VGP // replayed or double-loaded blob
	}
	if _, ok := o.enclaves[owner]; !ok {
		return VGP
	}
	o.blobOut[key] = false
	o.pages[page] = &Page{Valid: true, Type: t, Owner: owner, Vaddr: vaddr, Perms: perms}
	return VOK
}

// --- snapshotting (for divergence reports) ---

// DumpTLB renders core i's TLB deterministically, for divergence messages.
func (o *Oracle) DumpTLB(i int) string {
	c := o.cores[i]
	vpns := make([]uint64, 0, len(c.TLB))
	for vpn := range c.TLB {
		vpns = append(vpns, vpn)
	}
	sort.Slice(vpns, func(a, b int) bool { return vpns[a] < vpns[b] })
	s := ""
	for _, vpn := range vpns {
		e := c.TLB[vpn]
		s += fmt.Sprintf(" %#x->%#x(%v)", vpn, e.PPN, e.Perms)
	}
	if s == "" {
		s = " <empty>"
	}
	return s
}
