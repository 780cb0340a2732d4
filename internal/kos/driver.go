package kos

import (
	"errors"
	"fmt"
	"sync"

	"nestedenclave/internal/chaos"
	"nestedenclave/internal/isa"
	"nestedenclave/internal/measure"
	"nestedenclave/internal/sgx"
)

// Driver is the SGX kernel driver: the privileged side of enclave
// construction and EPC paging, the equivalent of the Linux SGX driver the
// paper modified.
type Driver struct {
	k  *Kernel
	mu sync.Mutex

	// evicted stores sealed EPC pages swapped to "disk" (kernel memory),
	// keyed by owner and virtual address.
	evicted map[evictKey]*sgx.EvictedPage

	// procs remembers which process each enclave is mapped in, so the
	// paging daemon can fix page tables when it evicts a victim.
	procs map[isa.EID]*Process
	// victimCursor rotates victim selection across the EPC.
	victimCursor int

	// SkipShootdown makes EvictPage omit the TLB-shootdown IPIs — an
	// incorrect (or malicious) kernel. The hardware's EWB check is expected
	// to refuse the eviction while stale translations remain.
	SkipShootdown bool

	// Adversary hook sites. All are nil under an honest kernel (one nil
	// check on each path) and are installed by internal/adversary's Engine
	// to model a kernel that lies. Each runs OUTSIDE d.mu.
	//
	// OnEvict observes every sealed blob the pager stores in untrusted
	// memory — the attacker's tap for capturing stale blobs to replay.
	OnEvict func(owner isa.EID, vpage isa.VAddr, blob *sgx.EvictedPage)
	// SuppressIPI, when it returns true, drops the ETRACK shootdown IPI for
	// the given (victim enclave, core) pair instead of delivering it.
	SuppressIPI func(victim isa.EID, core int) bool
	// ReloadFilter lets the kernel substitute the blob handed to ELDU on
	// the page-fault reload path (replaying a stale capture, cross-wiring
	// another enclave's blob). Returning nil keeps the genuine blob.
	ReloadFilter func(owner isa.EID, vpage isa.VAddr, genuine *sgx.EvictedPage) *sgx.EvictedPage
	// RemapReload, when it returns ok, overrides the physical frame the
	// reloaded page is mapped at — pointing the victim's ELRANGE at an
	// attacker-chosen address instead of the freshly loaded EPC page.
	RemapReload func(owner isa.EID, vpage isa.VAddr) (isa.PAddr, bool)

	// detect records the most recent typed freshness rejection returned by
	// ELDU on the reload path. The architectural interface can only deliver
	// #PF to the faulting core, so the driver keeps the hardware's detection
	// evidence here for the audit harness (DetectionEvidence).
	detect error
}

type evictKey struct {
	owner isa.EID
	vaddr isa.VAddr
}

// CreateEnclave performs ECREATE on behalf of the loader. The SECS page is an
// EPC allocation like any other, so a full EPC pages a victim out and
// retries. No enclave exists yet whose pages the pager should spare (EID 0).
func (d *Driver) CreateEnclave(base isa.VAddr, size uint64, attrs uint64) (*sgx.SECS, error) {
	var s *sgx.SECS
	_, err := d.retryPaging(0, func() (int, error) {
		var err error
		s, err = d.k.m.ECreate(base, size, attrs)
		return 0, err
	})
	return s, err
}

// AddPage performs EADD and maps the new EPC page into the process address
// space at its declared virtual address. TCS pages are mapped read-only for
// the page walk; the EPCM makes them inaccessible to software regardless.
func (d *Driver) AddPage(p *Process, s *sgx.SECS, a sgx.AddPageArgs) error {
	d.mu.Lock()
	if d.procs == nil {
		d.procs = make(map[isa.EID]*Process)
	}
	d.procs[s.EID] = p
	d.mu.Unlock()
	page, err := d.withPressure(s, func() (int, error) { return d.k.m.EAdd(s, a) })
	if err != nil {
		return err
	}
	ptePerms := a.Perms
	if a.Type == isa.PTTCS {
		ptePerms = isa.PermR
	}
	p.MapFixed(a.Vaddr, d.k.m.EPC.AddrOf(page), ptePerms)
	return nil
}

// AugPage adds a zeroed page to an initialized enclave (SGX2 EAUG) and maps
// it into the process.
func (d *Driver) AugPage(p *Process, s *sgx.SECS, vaddr isa.VAddr, perms isa.Perm) error {
	d.mu.Lock()
	if d.procs == nil {
		d.procs = make(map[isa.EID]*Process)
	}
	d.procs[s.EID] = p
	d.mu.Unlock()
	page, err := d.withPressure(s, func() (int, error) { return d.k.m.EAug(s, vaddr, perms) })
	if err != nil {
		return err
	}
	p.MapFixed(vaddr, d.k.m.EPC.AddrOf(page), perms)
	return nil
}

// ErrEPCPressure marks an EPC allocation that failed under memory pressure.
// It is transient: the caller can retry after backoff (resident pages get
// evicted in the meantime). errors.Is(err, chaos.ErrTransient) holds.
var ErrEPCPressure = fmt.Errorf("kos: EPC pressure: %w", chaos.ErrTransient)

// withPressure runs an EPC allocation, letting the paging daemon evict
// victim pages and retry when the EPC is exhausted.
func (d *Driver) withPressure(s *sgx.SECS, alloc func() (int, error)) (int, error) {
	// An injected allocation failure fails the ioctl outright — no
	// driver-internal retry — so recovery is observable at the SDK's retry
	// layer rather than silently self-healing here.
	if err := d.k.chaos.FireErr(chaos.SiteEPCAlloc, true); err != nil {
		return 0, fmt.Errorf("kos: EPC allocation failed: %w", err)
	}
	return d.retryPaging(s.EID, alloc)
}

// retryPaging runs alloc, and while it fails on an exhausted EPC evicts a
// victim (preferring pages not owned by avoid) and tries again.
func (d *Driver) retryPaging(avoid isa.EID, alloc func() (int, error)) (int, error) {
	const maxAttempts = 8
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		page, err := alloc()
		if err == nil {
			return page, nil
		}
		lastErr = err
		if d.k.m.FreeEPCPages() > 0 {
			return 0, err // not a pressure failure
		}
		if derr := d.makeRoom(avoid); derr != nil {
			return 0, fmt.Errorf("kos: EPC exhausted and paging daemon failed: %v (alloc: %w)", derr, err)
		}
	}
	return 0, fmt.Errorf("kos: EPC allocation failed after paging: %v: %w", lastErr, ErrEPCPressure)
}

// makeRoom is the paging daemon: it picks a resident regular page (rotating
// across the EPC, skipping the enclave currently being served when
// possible) and evicts it through the full architectural protocol.
func (d *Driver) makeRoom(avoid isa.EID) error {
	m := d.k.m
	n := m.EPC.NumPages()
	tryEvict := func(skipAvoid bool) error {
		resident := make(map[int]sgx.EPCSnapshot, n)
		for _, s := range m.SnapshotEPCM() {
			resident[s.Index] = s
		}
		for off := 0; off < n; off++ {
			idx := (d.victimCursor + off) % n
			snap, ok := resident[idx]
			if !ok {
				continue
			}
			ent := snap.Entry
			if ent.Blocked || ent.Type != isa.PTReg {
				continue
			}
			if skipAvoid && ent.Owner == avoid {
				continue
			}
			owner, ok := m.Enclave(ent.Owner)
			if !ok {
				continue
			}
			d.mu.Lock()
			proc := d.procs[ent.Owner]
			d.mu.Unlock()
			if proc == nil {
				continue
			}
			if err := d.EvictPage(proc, owner, ent.Vaddr); err != nil {
				continue // e.g. live translations on a busy enclave; try another victim
			}
			d.victimCursor = (idx + 1) % n
			return nil
		}
		return fmt.Errorf("no evictable EPC page found")
	}
	if err := tryEvict(true); err == nil {
		return nil
	}
	return tryEvict(false)
}

// InitEnclave performs EINIT.
func (d *Driver) InitEnclave(s *sgx.SECS, cert *measure.SigStruct) error {
	return d.k.m.EInit(s, cert)
}

// DestroyEnclave unmaps and removes every page of the enclave.
func (d *Driver) DestroyEnclave(p *Process, s *sgx.SECS) error {
	d.mu.Lock()
	for key := range d.evicted {
		if key.owner == s.EID {
			delete(d.evicted, key)
		}
	}
	d.mu.Unlock()
	if p != nil {
		for v := s.Base; v < s.Base+isa.VAddr(s.Size); v += isa.PageSize {
			p.pt.Unmap(v)
		}
	}
	return d.k.m.DestroyEnclave(s)
}

// EvictPage swaps one regular EPC page of the enclave out to kernel storage
// following the architectural protocol: EBLOCK, ETRACK, shootdown IPIs to
// the cores the Tracker reports, then EWB. The process mapping is marked
// not-present so the next access faults into reloadIfEvicted.
func (d *Driver) EvictPage(p *Process, s *sgx.SECS, vaddr isa.VAddr) error {
	m := d.k.m
	pageIdx, found := m.FindRegPage(s, vaddr)
	if !found {
		return fmt.Errorf("kos: enclave %d has no regular EPC page at %#x", s.EID, uint64(vaddr))
	}
	if err := m.EBlock(pageIdx); err != nil {
		return err
	}
	cores := m.ETrack(s)
	for _, c := range cores {
		if d.SkipShootdown || (d.SuppressIPI != nil && d.SuppressIPI(s.EID, c.ID)) {
			continue
		}
		m.ShootdownFor(c, s.EID)
	}
	blob, err := m.EWB(pageIdx)
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.evicted[evictKey{owner: s.EID, vaddr: vaddr.PageBase()}] = blob
	d.mu.Unlock()
	if d.OnEvict != nil {
		d.OnEvict(s.EID, vaddr.PageBase(), blob)
	}
	p.pt.MarkNotPresent(vaddr)
	return nil
}

// reloadIfEvicted is the page-fault path: if the faulting address names an
// evicted EPC page of the faulting enclave (or, with nesting, of one of its
// outer enclaves), reload it with ELDU and fix the mapping.
func (d *Driver) reloadIfEvicted(c *sgx.Core, f *isa.Fault) bool {
	m := d.k.m
	vpage := f.Addr.PageBase()
	d.mu.Lock()
	var blob *sgx.EvictedPage
	var key evictKey
	for k, b := range d.evicted {
		if k.vaddr == vpage {
			blob, key = b, k
			break
		}
	}
	if blob == nil {
		d.mu.Unlock()
		return false
	}
	delete(d.evicted, key)
	d.mu.Unlock()

	// A lying kernel may hand ELDU something other than the page's genuine
	// blob. The genuine one is kept aside either way, so a later honest
	// retry can still cure the fault.
	load, malicious := blob, false
	if d.ReloadFilter != nil {
		if sub := d.ReloadFilter(blob.Owner, vpage, blob); sub != nil && sub != blob {
			load, malicious = sub, true
		}
	}

	// Under EPC pressure the reload itself may need the paging daemon to
	// make room first.
	page, err := m.ELDU(load)
	for attempt := 0; err != nil && m.FreeEPCPages() == 0 && attempt < 4; attempt++ {
		if d.makeRoom(load.Owner) != nil {
			break
		}
		page, err = m.ELDU(load)
	}
	if err != nil {
		// Put the genuine blob back so the page is not lost; the access will
		// fail but a later retry can still succeed.
		d.mu.Lock()
		d.evicted[key] = blob
		if errors.Is(err, sgx.ErrBlobReplay) {
			d.detect = err
		}
		d.mu.Unlock()
		return false
	}
	if malicious {
		// The hardware accepted the substitute (a fresh, authentic blob of
		// some OTHER page): the EPC now holds that page, but the victim's
		// data is still only in its genuine blob — keep it.
		d.mu.Lock()
		d.evicted[key] = blob
		d.mu.Unlock()
	}
	// Re-establish the mapping in the owning process (and hence the
	// faulting core's address space). RemapReload models the last lie: the
	// PTE pointing somewhere other than the page ELDU just loaded.
	pa := m.EPC.AddrOf(page)
	if d.RemapReload != nil {
		if apa, ok := d.RemapReload(blob.Owner, vpage); ok {
			pa = apa
		}
	}
	d.mu.Lock()
	proc := d.procs[blob.Owner]
	d.mu.Unlock()
	if proc != nil {
		proc.pt.Map(vpage, pa, blob.Perms)
	} else if c.PT != nil {
		c.PT.Map(vpage, pa, blob.Perms)
	}
	return true
}

// DetectionEvidence returns the most recent typed blob-freshness rejection
// the reload path recorded (nil when none): the audit harness's window into
// detections that the architectural fault interface flattens into #PF.
func (d *Driver) DetectionEvidence() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.detect
}

// EvictedCount reports how many pages are currently swapped out (tests).
func (d *Driver) EvictedCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.evicted)
}
