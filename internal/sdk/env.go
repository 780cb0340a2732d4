package sdk

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"fmt"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/measure"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/trace"
)

// Env is the trusted runtime (tRTS) execution environment handed to enclave
// code: memory access through the hardware-validated path, the trusted heap,
// and the four transition interfaces (ocall, and for nested enclaves
// n_ecall/n_ocall; the initial ecall created this Env).
type Env struct {
	// E is the enclave this code runs in.
	E *Enclave
	// C is the executing core.
	C *sgx.Core

	tcsV isa.VAddr

	// deadline is the absolute simulated-cycle bound of the enclosing call
	// (ECallWithin), 0 = unbounded; budget is the original allowance, kept
	// for the error message. Inherited by nested-call environments.
	deadline int64
	budget   int64
	// expired latches once the deadline fires: the first expiry delivers a
	// real AEX + ERESUME preemption, later checks fail fast.
	expired bool
}

// preempt enforces the call deadline at every trusted-runtime operation.
// The first time the budget is exceeded, the enclave is preempted with a
// real AEX (context saved and scrubbed, TLB flushed) and ERESUMEd so the
// trusted code observes the timeout error; from then on every operation
// fails with the same *CallTimeout until the call unwinds.
func (env *Env) preempt() error {
	if env.deadline == 0 {
		return nil
	}
	if !env.expired {
		m := env.E.host.K.Machine()
		if m.Rec.Cycles() < env.deadline {
			return nil
		}
		env.expired = true
		if env.C.InEnclave() {
			t := env.C.CurrentTCS()
			if err := m.AEX(env.C); err == nil {
				if err := m.EResume(env.C, t); err != nil {
					return err
				}
			}
		}
	}
	return &CallTimeout{Enclave: env.E.img.Name, Budget: env.budget}
}

// --- Memory ---

// ErrContextLost is the sentinel matched (errors.Is) by *ContextLost.
var ErrContextLost = fmt.Errorf("sdk: enclave execution context lost")

// ContextLost reports that the core left this enclave's execution context
// mid-operation and was not resumed into it — the signature of a malicious
// scheduler parking the thread or ERESUMEing it elsewhere. Without this
// check the abort-page semantics would let trusted code keep computing on
// 0xFF filler; with it, the operation surfaces a typed detection error
// before any such value is returned. Non-transient: retrying on the same
// poisoned context cannot succeed.
type ContextLost struct {
	Enclave string
	Core    int
}

func (e *ContextLost) Error() string {
	return fmt.Sprintf("sdk: core %d no longer executes enclave %s (malicious scheduling detected)", e.Core, e.Enclave)
}

func (e *ContextLost) Is(target error) bool { return target == ErrContextLost }

// guardContext verifies, after a memory operation, that the core still
// executes this environment's enclave. One pointer compare — nil-cost for
// honest schedulers.
func (env *Env) guardContext() error {
	if env.C.Current() != env.E.secs {
		return &ContextLost{Enclave: env.E.img.Name, Core: env.C.ID}
	}
	return nil
}

// Read reads n bytes of (virtual) memory through the access-validated path.
// Reads of memory this enclave may not see return 0xFF bytes (abort-page
// semantics), exactly like the hardware — but if the execution context
// itself was torn down mid-read (wrong-core ERESUME), the data is withheld
// and a typed *ContextLost detection error returned instead.
func (env *Env) Read(v isa.VAddr, n int) ([]byte, error) {
	if err := env.preempt(); err != nil {
		return nil, err
	}
	b, err := env.C.Read(v, n)
	if err == nil {
		if cerr := env.guardContext(); cerr != nil {
			return nil, cerr
		}
	}
	return b, err
}

// Write stores b at v through the access-validated path. Writes to memory
// this enclave may not touch are silently dropped; a write whose execution
// context was torn down mid-operation reports *ContextLost.
func (env *Env) Write(v isa.VAddr, b []byte) error {
	if err := env.preempt(); err != nil {
		return err
	}
	err := env.C.Write(v, b)
	if err == nil {
		if cerr := env.guardContext(); cerr != nil {
			return cerr
		}
	}
	return err
}

// Malloc allocates n bytes on the enclave's trusted heap.
func (env *Env) Malloc(n int) (isa.VAddr, error) {
	if err := env.preempt(); err != nil {
		return 0, err
	}
	h := env.E.Heap()
	env.E.mu.Lock()
	defer env.E.mu.Unlock()
	return h.Alloc(n)
}

// Free releases a heap allocation (contents are not cleared).
func (env *Env) Free(v isa.VAddr) error {
	h := env.E.Heap()
	env.E.mu.Lock()
	defer env.E.mu.Unlock()
	return h.Free(v)
}

// --- Transitions ---

// OCall leaves the enclave to run a registered untrusted host function, then
// re-enters. The EDL must whitelist the function.
func (env *Env) OCall(name string, args []byte) ([]byte, error) {
	if err := env.preempt(); err != nil {
		return nil, err
	}
	if !env.E.img.AllowedOCalls[name] {
		return nil, fmt.Errorf("sdk: ocall %q not in enclave %s's EDL", name, env.E.img.Name)
	}
	fn, ok := env.E.host.ocall(name)
	if !ok {
		return nil, fmt.Errorf("sdk: host has no ocall handler %q", name)
	}
	m := env.E.host.K.Machine()
	sp := m.Rec.BeginSpan(env.C.ID, uint64(env.E.secs.EID), "ocall:"+name)
	defer sp.End()
	m.Rec.ChargeTo(uint64(env.E.secs.EID), env.C.ID, trace.EvOCall, 0)
	callStart := m.Rec.Cycles()
	// The tRTS scrubs registers and marshals arguments out before EEXIT.
	marshalled := append([]byte(nil), args...)
	env.C.Regs.Scrub()
	if err := m.EExit(env.C, false); err != nil {
		return nil, err
	}
	out, ferr := fn(marshalled)
	if err := m.EEnter(env.C, env.E.secs, env.tcsV, true); err != nil {
		return nil, err
	}
	m.Rec.Observe(trace.OpOCall, m.Rec.Cycles()-callStart)
	if ferr != nil {
		return nil, ferr
	}
	// Ownership of the handler's return buffer transfers to the enclave; the
	// marshalling-in copy above is the only defensive copy on this path.
	return out, nil
}

// OCallAsync performs an ocall through the host's switchless engine when the
// EDL marks the function switchless (AllowSwitchless) and the engine is
// running: the request is posted on the calling core's ring and served by a
// host worker while this enclave thread polls, eliding the EEXIT/EENTER
// transition pair. On any deterministic obstacle — unmarked function, no
// engine, ring full, engine stopping, or the wait budget expiring unclaimed —
// it degrades to the synchronous OCall path, so callers may use it
// unconditionally for switchless-capable functions.
func (env *Env) OCallAsync(name string, args []byte) ([]byte, error) {
	if err := env.preempt(); err != nil {
		return nil, err
	}
	if !env.E.img.SwitchlessOCalls[name] {
		return env.OCall(name, args)
	}
	eng := env.E.host.Switchless()
	if eng == nil || !eng.Running() {
		return env.OCall(name, args)
	}
	if !env.E.img.AllowedOCalls[name] {
		return nil, fmt.Errorf("sdk: ocall %q not in enclave %s's EDL", name, env.E.img.Name)
	}
	if _, ok := env.E.host.ocall(name); !ok {
		return nil, fmt.Errorf("sdk: host has no ocall handler %q", name)
	}
	m := env.E.host.K.Machine()
	eid := uint64(env.E.secs.EID)
	sp := m.Rec.BeginSpan(env.C.ID, eid, "switchless_ocall:"+name)
	defer sp.End()
	callStart := m.Rec.Cycles()
	// One marshalling copy into the shared (untrusted) ring buffer; the
	// response buffer is produced by the host and ownership transfers here.
	marshalled := append([]byte(nil), args...)
	out, ferr, ok := eng.Submit(env.C.ID, eid, name, marshalled)
	if !ok {
		// Ring full, engine stopped, or starved past the wait budget: pay the
		// transition after all.
		return env.OCall(name, args)
	}
	m.Rec.Observe(trace.OpSwitchlessOCall, m.Rec.Cycles()-callStart)
	return out, ferr
}

// NECall invokes an entry point of an associated inner enclave via NEENTER —
// the outer→inner transition that never leaves protected mode. The target
// function runs with the inner enclave's environment; on return NEEXIT
// restores this enclave's context.
func (env *Env) NECall(inner *Enclave, name string, args []byte) ([]byte, error) {
	if err := env.preempt(); err != nil {
		return nil, err
	}
	ext := env.E.host.Ext
	if ext == nil {
		return nil, fmt.Errorf("sdk: machine has no nested-enclave support")
	}
	fn, ok := inner.img.ECalls[name]
	if !ok {
		return nil, fmt.Errorf("sdk: inner enclave %s has no entry %q", inner.img.Name, name)
	}
	m := env.E.host.K.Machine()
	sp := m.Rec.BeginSpan(env.C.ID, uint64(inner.secs.EID), "n_ecall:"+name)
	defer sp.End()
	m.Rec.ChargeTo(uint64(inner.secs.EID), env.C.ID, trace.EvNECall, 0)
	callStart := m.Rec.Cycles()
	tcsV := inner.claimTCS()
	defer inner.releaseTCS(tcsV)
	marshalled := append([]byte(nil), args...)
	if err := ext.NEENTER(env.C, inner.secs, tcsV); err != nil {
		return nil, err
	}
	// The nested environment inherits the enclosing call's deadline.
	innerEnv := &Env{E: inner, C: env.C, tcsV: tcsV, deadline: env.deadline, budget: env.budget, expired: env.expired}
	out, ferr := runNested(innerEnv, name, fn, marshalled)
	if _, crashed := IsCrash(ferr); crashed {
		// The inner crashed; runNested already popped back to this frame
		// (or evacuated the core). Surface the typed error to the caller.
		return nil, ferr
	}
	if err := ext.NEEXIT(env.C); err != nil {
		return nil, err
	}
	m.Rec.Observe(trace.OpNECall, m.Rec.Cycles()-callStart)
	if ferr != nil {
		return nil, ferr
	}
	return out, nil
}

// runNested runs a trusted function at a nested-transition boundary with
// panic containment: a panic poisons the executing (inner or outer) enclave
// and — when a suspended caller frame exists — NEEXITs back to it, which
// scrubs the register file so no crashed-enclave state leaks into the
// caller. Without a frame to return to, the core is force-evacuated.
func runNested(env *Env, call string, fn TrustedFunc, args []byte) (out []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			m := env.E.host.K.Machine()
			eid := env.E.secs.EID
			m.PoisonEnclave(eid, fmt.Sprintf("trusted code panic in %s: %v", call, r))
			ext := env.E.host.Ext
			if t := env.C.CurrentTCS(); t != nil && t.Ret() && ext != nil {
				if nerr := ext.NEEXIT(env.C); nerr != nil {
					m.EmergencyExit(env.C)
				}
			} else {
				m.EmergencyExit(env.C)
			}
			out, err = nil, &EnclaveCrashed{Enclave: env.E.img.Name, Call: call, EID: eid, Panic: r}
		}
	}()
	return fn(env, args)
}

// NOCall invokes a function the outer enclave exposes to its inners via
// NEEXIT/NEENTER — the inner→outer call path with ordinary procedure-call
// syntax ("an application in an inner enclave can call library functions
// isolated in the outer enclave").
func (env *Env) NOCall(name string, args []byte) ([]byte, error) {
	if err := env.preempt(); err != nil {
		return nil, err
	}
	ext := env.E.host.Ext
	if ext == nil {
		return nil, fmt.Errorf("sdk: machine has no nested-enclave support")
	}
	outers := env.E.Outers()
	if len(outers) == 0 {
		return nil, fmt.Errorf("sdk: enclave %s has no outer enclave", env.E.img.Name)
	}
	// Resolve the function across the associated outer enclaves (one, in
	// the base model).
	var outer *Enclave
	var fn TrustedFunc
	for _, o := range outers {
		if f, ok := o.img.NOCalls[name]; ok {
			outer, fn = o, f
			break
		}
	}
	if outer == nil {
		return nil, fmt.Errorf("sdk: no outer enclave of %s exposes %q", env.E.img.Name, name)
	}
	m := env.E.host.K.Machine()
	sp := m.Rec.BeginSpan(env.C.ID, uint64(outer.secs.EID), "n_ocall:"+name)
	defer sp.End()
	m.Rec.ChargeTo(uint64(outer.secs.EID), env.C.ID, trace.EvNOCall, 0)
	callStart := m.Rec.Cycles()
	marshalled := append([]byte(nil), args...)

	// Fast path: this inner was NEENTERed from the outer enclave, so NEEXIT
	// restores the suspended outer context directly (scrubbing registers
	// and flushing the TLB)...
	if t := env.C.CurrentTCS(); t != nil && t.Ret() {
		if err := ext.NEEXIT(env.C); err != nil {
			return nil, err
		}
		outerTCS := env.C.CurrentTCS()
		outerEnv := &Env{E: outer, C: env.C, tcsV: outerTCS.Vaddr, deadline: env.deadline, budget: env.budget, expired: env.expired}
		out, ferr := runNested(outerEnv, name, fn, marshalled)
		if _, crashed := IsCrash(ferr); crashed {
			// The outer crashed while serving this call; there is no frame
			// to NEENTER back through (runNested evacuated the core).
			return nil, ferr
		}
		// ...then NEENTER back into this inner enclave on the same TCS.
		if err := ext.NEENTER(env.C, env.E.secs, env.tcsV); err != nil {
			return nil, err
		}
		m.Rec.Observe(trace.OpNOCall, m.Rec.Cycles()-callStart)
		if ferr != nil {
			return nil, ferr
		}
		return out, nil
	}

	// Upward path: the inner was entered directly from untrusted code (the
	// per-user service deployments), so the call transfers into the outer
	// enclave with an upward NEENTER and returns with NEEXIT — still never
	// leaving protected mode.
	outerTCSV := outer.claimTCS()
	defer outer.releaseTCS(outerTCSV)
	if err := ext.NEENTER(env.C, outer.secs, outerTCSV); err != nil {
		return nil, err
	}
	outerEnv := &Env{E: outer, C: env.C, tcsV: outerTCSV, deadline: env.deadline, budget: env.budget, expired: env.expired}
	out, ferr := runNested(outerEnv, name, fn, marshalled)
	if _, crashed := IsCrash(ferr); crashed {
		// The outer crashed; runNested already NEEXITed back to this inner.
		return nil, ferr
	}
	if err := ext.NEEXIT(env.C); err != nil {
		return nil, err
	}
	m.Rec.Observe(trace.OpNOCall, m.Rec.Cycles()-callStart)
	if ferr != nil {
		return nil, ferr
	}
	return out, nil
}

// --- Attestation ---

// Report produces an EREPORT targeted at the enclave measuring target.
func (env *Env) Report(target measure.Digest, data [64]byte) (*sgx.Report, error) {
	return env.E.host.K.Machine().EReport(env.C, target, data)
}

// VerifyReport checks a report addressed to this enclave.
func (env *Env) VerifyReport(r *sgx.Report) error {
	return env.E.host.K.Machine().VerifyReport(env.C, r)
}

// GetKey derives a sealing/report key for this enclave.
func (env *Env) GetKey(name measure.KeyName, policy sgx.SealPolicy, extra []byte) ([16]byte, error) {
	return env.E.host.K.Machine().EGetKey(env.C, name, policy, extra)
}

// Seal encrypts data under a key only this enclave (SealToEnclave) or any
// enclave from the same author (SealToSigner) can re-derive, producing a
// blob safe to hand to the untrusted world for persistence.
func (env *Env) Seal(policy sgx.SealPolicy, plaintext []byte) ([]byte, error) {
	aead, err := env.sealAEAD(policy)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, aead.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	return aead.Seal(nonce, nonce, plaintext, nil), nil
}

// Unseal reverses Seal. It fails for blobs sealed by any other identity —
// the property that makes sealed storage safe in kernel hands.
func (env *Env) Unseal(policy sgx.SealPolicy, blob []byte) ([]byte, error) {
	aead, err := env.sealAEAD(policy)
	if err != nil {
		return nil, err
	}
	if len(blob) < aead.NonceSize() {
		return nil, fmt.Errorf("sdk: sealed blob too short")
	}
	pt, err := aead.Open(nil, blob[:aead.NonceSize()], blob[aead.NonceSize():], nil)
	if err != nil {
		return nil, fmt.Errorf("sdk: unseal failed (wrong enclave identity or tampered blob): %w", err)
	}
	return pt, nil
}

func (env *Env) sealAEAD(policy sgx.SealPolicy) (cipher.AEAD, error) {
	key, err := env.GetKey(measure.KeySeal, policy, nil)
	if err != nil {
		return nil, err
	}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// GrowHeap populates reserved ELRANGE pages (SGX2 EAUG) from inside the
// enclave: the request leaves via an implicit ocall to the runtime, which
// asks the kernel to augment the pages.
func (env *Env) GrowHeap(n int) error { return env.E.GrowHeap(n) }
