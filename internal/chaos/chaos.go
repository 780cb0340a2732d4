// Package chaos is the deterministic, seed-driven runtime fault injector.
//
// The rest of the stack carries cheap hook points — one nil check plus, when
// an injector is installed, one PRNG draw — at the places where real systems
// fail: the MEE's DRAM fetch path (bit flips), the kernel driver's EPC
// allocator (pressure failures), the IPC router (drop/duplicate/corrupt),
// and the core's memory-access loop (spurious interrupt storms, stalled
// cores). Every decision derives from a splitmix64 stream seeded by the
// caller, so a failing soak run replays exactly from its seed.
//
// A nil *Injector is a valid injector that never fires; hook points call
// methods on it directly without guarding, keeping the disabled path free.
package chaos

import (
	"errors"
	"fmt"
	"sync"

	"nestedenclave/internal/trace"
)

// Site identifies one fault-injection hook point in the stack.
type Site int

const (
	// SiteDRAMBitFlip flips one ciphertext bit of a protected line as the
	// MEE fetches it from DRAM — a physical memory disturbance the
	// integrity tree detects as a machine check.
	SiteDRAMBitFlip Site = iota
	// SiteEPCAlloc fails an EPC allocation in the kernel driver as if the
	// EPC were exhausted. Transient: retry after backoff recovers.
	SiteEPCAlloc
	// SiteIPCDrop silently discards an IPC message in the kernel router.
	SiteIPCDrop
	// SiteIPCDup delivers an IPC message twice.
	SiteIPCDup
	// SiteIPCCorrupt flips one bit of an IPC message in flight.
	SiteIPCCorrupt
	// SiteAEXStorm delivers spurious interrupts (AEX + ERESUME round
	// trips) to a core executing in enclave mode.
	SiteAEXStorm
	// SiteSlowCore stalls a core's memory access for a burst of simulated
	// cycles (frequency throttling, scheduling jitter).
	SiteSlowCore

	numSites
)

// NumSites is the number of defined fault sites.
const NumSites = int(numSites)

var siteNames = [...]string{
	SiteDRAMBitFlip: "dram_bit_flip",
	SiteEPCAlloc:    "epc_alloc",
	SiteIPCDrop:     "ipc_drop",
	SiteIPCDup:      "ipc_dup",
	SiteIPCCorrupt:  "ipc_corrupt",
	SiteAEXStorm:    "aex_storm",
	SiteSlowCore:    "slow_core",
}

func (s Site) String() string {
	if s >= 0 && int(s) < len(siteNames) {
		return siteNames[s]
	}
	return fmt.Sprintf("site(%d)", int(s))
}

// ErrTransient classifies faults a caller should retry:
// errors.Is(err, chaos.ErrTransient) reports whether err (or anything it
// wraps) is expected to succeed on a later attempt.
var ErrTransient = errors.New("transient fault")

// Injected is the typed error attached to faults injected at error-returning
// sites. It matches ErrTransient (via errors.Is) when the site is one retry
// can cure.
type Injected struct {
	Site      Site
	Transient bool
}

func (e *Injected) Error() string {
	return fmt.Sprintf("chaos: injected %s fault", e.Site)
}

// Is lets errors.Is(err, ErrTransient) classify injected faults.
func (e *Injected) Is(target error) bool {
	return target == ErrTransient && e.Transient
}

// SiteConfig tunes one fault site.
type SiteConfig struct {
	// Prob is the firing probability per hook evaluation, in [0, 1].
	Prob float64
	// Budget caps the total number of injections at this site; 0 means
	// unlimited.
	Budget int
	// Burst is the number of consecutive events per firing (the length of
	// an AEX storm, the cycles multiplier of a stall); 0 means 1.
	Burst int
}

// Config seeds an injector. Sites without an entry never fire.
type Config struct {
	Seed  uint64
	Sites map[Site]SiteConfig
}

// SiteStats is the per-site injection/recovery tally.
type SiteStats struct {
	Injected  int64
	Recovered int64
}

// Injector decides, deterministically from its seed, whether each hook
// evaluation fires. Safe for concurrent use; a nil *Injector never fires.
type Injector struct {
	mu    sync.Mutex
	state uint64
	sites [numSites]siteState
	rec   *trace.Recorder
}

type siteState struct {
	threshold uint64 // Prob scaled to the uint64 range; 0 = never
	budget    int    // remaining injections; -1 = unlimited
	burst     int
	injected  int64
	recovered int64
}

// New builds an injector. rec may be nil; when set it is charged an
// EvChaosInject/EvChaosRecover record per event (detail = site), so the
// stats tooling reports injection activity alongside architectural counters.
func New(cfg Config, rec *trace.Recorder) *Injector {
	inj := &Injector{state: cfg.Seed, rec: rec}
	for i := range inj.sites {
		inj.sites[i].budget = -1
		inj.sites[i].burst = 1
	}
	for s, sc := range cfg.Sites {
		if s < 0 || int(s) >= NumSites {
			continue
		}
		st := &inj.sites[s]
		switch {
		case sc.Prob >= 1:
			st.threshold = ^uint64(0)
		case sc.Prob > 0:
			st.threshold = uint64(sc.Prob * float64(1<<63) * 2)
		}
		if sc.Budget > 0 {
			st.budget = sc.Budget
		}
		if sc.Burst > 0 {
			st.burst = sc.Burst
		}
	}
	return inj
}

// Mix is one splitmix64 step: the deterministic PRNG the injector (and the
// SDK's retry jitter) draws from.
func Mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// next draws one PRNG value. Caller holds inj.mu.
func (inj *Injector) next() uint64 {
	inj.state += 0x9e3779b97f4a7c15
	z := inj.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Fire reports whether the site fires at this hook evaluation, consuming one
// PRNG draw and one budget unit when it does. Nil-safe.
func (inj *Injector) Fire(site Site) bool {
	return inj.FireOn(site, trace.NoCore)
}

// FireOn is Fire for hook points that know the core they run on: the
// injection record is charged on that core, which attaches it to the
// innermost span open there — a soak trace then shows which call tree each
// injected fault landed in. Hook points without a core (kernel IPC, MEE)
// use Fire; their records attach via the recorder's span hint. Nil-safe.
func (inj *Injector) FireOn(site Site, core int) bool {
	if inj == nil {
		return false
	}
	inj.mu.Lock()
	st := &inj.sites[site]
	if st.threshold == 0 || st.budget == 0 {
		inj.mu.Unlock()
		return false
	}
	if v := inj.next(); st.threshold != ^uint64(0) && v >= st.threshold {
		inj.mu.Unlock()
		return false
	}
	if st.budget > 0 {
		st.budget--
	}
	st.injected++
	rec := inj.rec
	inj.mu.Unlock()
	if rec != nil {
		rec.ChargeToDetail(trace.NoEID, core, trace.EvChaosInject, 0, uint64(site))
	}
	return true
}

// FireErr returns the typed injected error when the site fires, nil
// otherwise. Nil-safe.
func (inj *Injector) FireErr(site Site, transient bool) error {
	if inj.Fire(site) {
		return &Injected{Site: site, Transient: transient}
	}
	return nil
}

// Recovered credits one recovery to the site: an injected fault that a
// retry, retransmit, resume or restart cured. Nil-safe.
func (inj *Injector) Recovered(site Site) {
	inj.RecoveredOn(site, trace.NoCore)
}

// RecoveredOn is Recovered with core context, the FireOn counterpart: the
// recovery record attaches to the core's innermost open span. Nil-safe.
func (inj *Injector) RecoveredOn(site Site, core int) {
	if inj == nil {
		return
	}
	inj.mu.Lock()
	inj.sites[site].recovered++
	rec := inj.rec
	inj.mu.Unlock()
	if rec != nil {
		rec.ChargeToDetail(trace.NoEID, core, trace.EvChaosRecover, 0, uint64(site))
	}
}

// RecoverFrom credits a recovery for the site that produced err, when err
// carries an injected-fault marker. Returns whether a site was credited.
// Nil-safe (in both arguments).
func (inj *Injector) RecoverFrom(err error) bool {
	if inj == nil || err == nil {
		return false
	}
	var ie *Injected
	if !errors.As(err, &ie) {
		return false
	}
	inj.Recovered(ie.Site)
	return true
}

// Rand returns a deterministic value in [0, n). A nil injector (or n == 0)
// returns 0.
func (inj *Injector) Rand(n uint64) uint64 {
	if inj == nil || n == 0 {
		return 0
	}
	inj.mu.Lock()
	v := inj.next()
	inj.mu.Unlock()
	return v % n
}

// Burst returns the configured burst length for the site (at least 1).
func (inj *Injector) Burst(site Site) int {
	if inj == nil {
		return 1
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.sites[site].burst
}

// Injected returns how many times the site has fired.
func (inj *Injector) Injected(site Site) int64 {
	if inj == nil {
		return 0
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.sites[site].injected
}

// Stats snapshots every site's injection/recovery tally, keyed by site name.
// Sites with no activity are omitted.
func (inj *Injector) Stats() map[string]SiteStats {
	out := make(map[string]SiteStats)
	if inj == nil {
		return out
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for i := range inj.sites {
		st := &inj.sites[i]
		if st.injected != 0 || st.recovered != 0 {
			out[Site(i).String()] = SiteStats{Injected: st.injected, Recovered: st.recovered}
		}
	}
	return out
}
