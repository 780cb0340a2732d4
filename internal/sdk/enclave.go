package sdk

import (
	"fmt"
	"sync"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/talloc"
	"nestedenclave/internal/trace"
)

// Enclave is the host-side handle to a loaded enclave.
type Enclave struct {
	host *Host
	img  *Image
	secs *sgx.SECS

	mu     sync.Mutex
	outers []*Enclave
	inners []*Enclave
	heap   *talloc.Heap
	grown  int // reserved pages already populated by GrowHeap

	tcsFree chan isa.VAddr
}

// GrowHeap populates n pages of the image's reserved region with SGX2-style
// EAUG and donates them to the trusted heap. It fails once the declared
// reservation is exhausted — ELRANGE cannot grow after ECREATE.
func (e *Enclave) GrowHeap(n int) error {
	if n <= 0 {
		return fmt.Errorf("sdk: grow of %d pages", n)
	}
	h := e.Heap()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.grown+n > e.img.L.ReservedHeapPages {
		return fmt.Errorf("sdk: heap growth of %d pages exceeds reservation (%d of %d used)",
			n, e.grown, e.img.L.ReservedHeapPages)
	}
	base := e.img.ReservedBase() + isa.VAddr(e.grown)*isa.PageSize
	for i := 0; i < n; i++ {
		v := base + isa.VAddr(i)*isa.PageSize
		if err := e.host.K.Driver.AugPage(e.host.Proc, e.secs, v, isa.PermRW); err != nil {
			return err
		}
	}
	e.grown += n
	return h.Extend(base, uint64(n)*isa.PageSize)
}

// SECS exposes the enclave's control structure (tests, attestation flows).
func (e *Enclave) SECS() *sgx.SECS { return e.secs }

// Image returns the image the enclave was loaded from.
func (e *Enclave) Image() *Image { return e.img }

// Host returns the owning host.
func (e *Enclave) Host() *Host { return e.host }

// Outers returns the associated outer enclaves (after Associate).
func (e *Enclave) Outers() []*Enclave {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*Enclave(nil), e.outers...)
}

// Inners returns the associated inner enclaves.
func (e *Enclave) Inners() []*Enclave {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*Enclave(nil), e.inners...)
}

// Heap returns the enclave's trusted heap allocator (lazily created over the
// image's heap pages). The allocator is shared by all threads; callers
// serialize through the enclave lock internally.
func (e *Enclave) Heap() *talloc.Heap {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.heap == nil {
		e.heap = talloc.New(e.img.HeapBase(), e.img.HeapSize())
	}
	return e.heap
}

// claimTCS takes an idle TCS virtual address from the pool.
func (e *Enclave) claimTCS() isa.VAddr { return <-e.tcsFree }

func (e *Enclave) releaseTCS(v isa.VAddr) { e.tcsFree <- v }

// ECall invokes a trusted entry point from the untrusted host: acquire a
// core and a TCS, EENTER, run the function inside the enclave, EEXIT.
// A panic in the trusted code does not escape: the crash is contained
// (registers and saved state scrubbed, enclave poisoned) and surfaced as a
// typed *EnclaveCrashed error.
func (e *Enclave) ECall(name string, args []byte) ([]byte, error) {
	return e.eCall(name, args, 0)
}

// ECallWithin is ECall with a budget of simulated cycles: when the call
// exceeds it, the enclave is preempted with a real AEX + ERESUME round trip
// and every subsequent trusted-runtime operation fails with *CallTimeout,
// forcing the call to unwind.
func (e *Enclave) ECallWithin(name string, args []byte, budget int64) ([]byte, error) {
	return e.eCall(name, args, budget)
}

func (e *Enclave) eCall(name string, args []byte, budget int64) ([]byte, error) {
	fn, ok := e.img.ECalls[name]
	if !ok {
		return nil, fmt.Errorf("sdk: enclave %s has no ecall %q", e.img.Name, name)
	}
	// The uRTS marshals arguments into an untrusted buffer the enclave will
	// copy in; the simulator models the copy cost with a defensive copy.
	// The output is not re-copied: ownership of a trusted function's return
	// buffer transfers to the caller (handlers must not retain it).
	marshalled := append([]byte(nil), args...)
	c, err := e.host.acquireCore()
	if err != nil {
		return nil, err
	}
	defer e.host.releaseCore(c)
	tcsV := e.claimTCS()
	defer e.releaseTCS(tcsV)

	m := e.host.K.Machine()
	sp := m.Rec.BeginSpan(c.ID, uint64(e.secs.EID), "ecall:"+name)
	defer sp.End()
	m.Rec.ChargeTo(uint64(e.secs.EID), c.ID, trace.EvECall, 0)
	callStart := m.Rec.Cycles()
	if err := m.EEnter(c, e.secs, tcsV, false); err != nil {
		return nil, err
	}
	env := &Env{E: e, C: c, tcsV: tcsV}
	if budget > 0 {
		env.deadline = callStart + budget
		env.budget = budget
	}
	out, ferr := runTrusted(env, name, fn, marshalled)
	// The tRTS scrubs the register file before leaving the enclave.
	c.Regs.Scrub()
	if !c.InEnclave() {
		// The core was evacuated mid-call: either the panic containment
		// above ran EmergencyExit, or an injected interrupt storm failed to
		// resume a poisoned enclave. Scrub the stranded TCS so the slot is
		// reusable after the enclave is rebuilt.
		if t, terr := e.secs.FindTCS(tcsV); terr == nil {
			m.ScrubTCS(t)
		}
		m.Rec.Observe(trace.OpECall, m.Rec.Cycles()-callStart)
		if ferr == nil {
			ferr = fmt.Errorf("sdk: enclave evacuated mid-call")
		}
		if _, isCrash := IsCrash(ferr); isCrash {
			return nil, ferr
		}
		return nil, &EnclaveError{Enclave: e.img.Name, Call: name, Err: ferr}
	}
	if err := m.EExit(c, true); err != nil {
		return nil, err
	}
	m.Rec.Observe(trace.OpECall, m.Rec.Cycles()-callStart)
	if ferr != nil {
		if _, isCrash := IsCrash(ferr); isCrash {
			return nil, ferr
		}
		return nil, &EnclaveError{Enclave: e.img.Name, Call: name, Err: ferr}
	}
	return out, nil
}

// runTrusted runs a trusted function with panic containment: a panic inside
// the enclave poisons it, force-evacuates the core (scrubbing registers and
// every suspended frame of the nested chain, so no secrets survive), and
// converts the crash into a typed error.
func runTrusted(env *Env, call string, fn TrustedFunc, args []byte) (out []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			m := env.E.host.K.Machine()
			eid := env.E.secs.EID
			m.PoisonEnclave(eid, fmt.Sprintf("trusted code panic in %s: %v", call, r))
			m.EmergencyExit(env.C)
			out, err = nil, &EnclaveCrashed{Enclave: env.E.img.Name, Call: call, EID: eid, Panic: r}
		}
	}()
	return fn(env, args)
}

// EnclaveError marks failures raised by enclave code (as opposed to
// transition faults).
type EnclaveError struct {
	Enclave string
	Call    string
	Err     error
}

func (e *EnclaveError) Error() string {
	return fmt.Sprintf("enclave %s: %s: %v", e.Enclave, e.Call, e.Err)
}

func (e *EnclaveError) Unwrap() error { return e.Err }
