package sdk_test

import (
	"bytes"
	"testing"

	"nestedenclave/internal/core"
	"nestedenclave/internal/measure"
	"nestedenclave/internal/sdk"
	"nestedenclave/internal/switchless"
	"nestedenclave/internal/trace"
)

// TestOCallAsyncElidesTransition drives N switchless ocalls from inside one
// ecall and checks that the ring path was taken: the switchless counters
// advance, no EEXIT/EENTER pairs beyond the enclosing ecall's occur, and the
// per-call cycle cost is the fixed ring protocol cost rather than the full
// transition cost.
func TestOCallAsyncElidesTransition(t *testing.T) {
	r := newRig(t, core.TwoLevel())
	img := sdk.NewImage("app", 0x1000_0000, sdk.DefaultLayout()).
		AllowSwitchless("upper")
	const n = 32
	img.RegisterECall("run", func(env *sdk.Env, args []byte) ([]byte, error) {
		var last []byte
		for i := 0; i < n; i++ {
			out, err := env.OCallAsync("upper", []byte{'a' + byte(i%26)})
			if err != nil {
				return nil, err
			}
			last = out
		}
		return last, nil
	})
	r.host.RegisterOCall("upper", func(args []byte) ([]byte, error) {
		return bytes.ToUpper(args), nil
	})
	r.host.StartSwitchless(switchless.Config{})
	defer r.host.StopSwitchless()

	e := mustLoad(t, r.host, img.Sign(measure.MustNewAuthor(), nil, nil))
	exits := r.m.Rec.Get(trace.EvEEXIT)
	out, err := e.ECall("run", nil)
	if err != nil {
		t.Fatalf("ecall: %v", err)
	}
	if string(out) != string([]byte{'A' + byte((n-1)%26)}) {
		t.Fatalf("last response %q", out)
	}
	if got := r.m.Rec.Get(trace.EvSwitchless); got != 2*n {
		t.Fatalf("switchless events %d, want %d (submit+service per call)", got, 2*n)
	}
	if got := r.m.Rec.Get(trace.EvSwitchlessFallback); got != 0 {
		t.Fatalf("fallbacks %d", got)
	}
	if got := r.m.Rec.Get(trace.EvOCall); got != 0 {
		t.Fatalf("synchronous ocalls %d, want 0", got)
	}
	// The only EEXIT is the enclosing ecall's return: the ocalls never left.
	if got := r.m.Rec.Get(trace.EvEEXIT) - exits; got != 1 {
		t.Fatalf("EEXITs during ecall %d, want 1", got)
	}
	st := r.host.Switchless().Stats()
	if st.Completed != n || st.Fallbacks != 0 {
		t.Fatalf("engine stats %+v", st)
	}
}

// TestOCallAsyncFallsBackSynchronously covers the degradation ladder: an
// unmarked function and a stopped engine both route through the ordinary
// transition-paying OCall with identical results.
func TestOCallAsyncFallsBackSynchronously(t *testing.T) {
	r := newRig(t, core.TwoLevel())
	img := sdk.NewImage("app", 0x1000_0000, sdk.DefaultLayout()).
		AllowOCall("plain").
		AllowSwitchless("fast")
	img.RegisterECall("plain", func(env *sdk.Env, args []byte) ([]byte, error) {
		return env.OCallAsync("plain", args) // not switchless-marked
	})
	img.RegisterECall("fast", func(env *sdk.Env, args []byte) ([]byte, error) {
		return env.OCallAsync("fast", args) // marked, but no engine running
	})
	echo := func(args []byte) ([]byte, error) { return args, nil }
	r.host.RegisterOCall("plain", echo)
	r.host.RegisterOCall("fast", echo)

	e := mustLoad(t, r.host, img.Sign(measure.MustNewAuthor(), nil, nil))
	for _, call := range []string{"plain", "fast"} {
		before := r.m.Rec.Get(trace.EvOCall)
		out, err := e.ECall(call, []byte("x"))
		if err != nil {
			t.Fatalf("%s: %v", call, err)
		}
		if string(out) != "x" {
			t.Fatalf("%s returned %q", call, out)
		}
		if got := r.m.Rec.Get(trace.EvOCall) - before; got != 1 {
			t.Fatalf("%s: synchronous ocall count %d, want 1", call, got)
		}
	}
	if got := r.m.Rec.Get(trace.EvSwitchless); got != 0 {
		t.Fatalf("ring events without a running engine: %d", got)
	}
}

// TestSwitchlessMarkingIsMeasured: the EDL's switchless annotation is part of
// the trusted interface contract, so it must change MRENCLAVE.
func TestSwitchlessMarkingIsMeasured(t *testing.T) {
	a := sdk.NewImage("app", 0x1000_0000, sdk.DefaultLayout()).AllowOCall("f")
	b := sdk.NewImage("app", 0x1000_0000, sdk.DefaultLayout()).AllowSwitchless("f")
	if a.Measure() == b.Measure() {
		t.Fatal("switchless marking did not change the measurement")
	}
}

// TestCallMarshallingAllocs pins the defensive-copy budget of the hot
// ecall+ocall round trip. Before the copy-once change the path performed
// both an inbound and an outbound copy per boundary (7 allocs/op for this
// shape); with output ownership transfer it must stay at or below 5.
func TestCallMarshallingAllocs(t *testing.T) {
	r := newRig(t, core.TwoLevel())
	img := sdk.NewImage("app", 0x1000_0000, sdk.DefaultLayout()).AllowOCall("echo")
	img.RegisterECall("relay", func(env *sdk.Env, args []byte) ([]byte, error) {
		return env.OCall("echo", args)
	})
	r.host.RegisterOCall("echo", func(args []byte) ([]byte, error) { return args, nil })
	e := mustLoad(t, r.host, img.Sign(measure.MustNewAuthor(), nil, nil))

	payload := make([]byte, 64)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := e.ECall("relay", payload); err != nil {
			t.Fatalf("relay: %v", err)
		}
	})
	if allocs > 5 {
		t.Fatalf("ecall+ocall round trip allocates %.1f/op, want <= 5 (outbound copies removed)", allocs)
	}
}
