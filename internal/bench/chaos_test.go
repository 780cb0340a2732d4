package bench

import (
	"os"
	"strconv"
	"testing"

	"nestedenclave/internal/chaos"
)

// soakConfig reads the documented knobs: CHAOS_SEED and CHAOS_OPS override
// the default deterministic run (see TESTING.md for the replay recipe).
func soakConfig(t *testing.T) ChaosConfig {
	cfg := ChaosConfig{Seed: 0xC0FFEE, Ops: 250, Records: 60}
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		n, err := strconv.ParseUint(v, 0, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED: %v", err)
		}
		cfg.Seed = n
	}
	if v := os.Getenv("CHAOS_OPS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("CHAOS_OPS: %v", err)
		}
		cfg.Ops = n
	}
	return cfg
}

// TestChaosSoak is the headline robustness test: the nested SQL service
// survives active fault injection with zero data loss or corruption, every
// fault either retried to success or surfaced as a typed error, and the
// machine's structural invariants intact at the end.
func TestChaosSoak(t *testing.T) {
	cfg := soakConfig(t)
	rep, err := ChaosSoak(cfg)
	if err != nil {
		t.Fatalf("soak did not complete: %v", err)
	}
	t.Logf("\n%s", rep)
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.TotalInjected() == 0 {
		t.Fatal("injector fired nothing; the soak is vacuous")
	}
	if rep.Failed*5 > rep.Ops {
		t.Errorf("error rate too high: %d of %d ops failed", rep.Failed, rep.Ops)
	}
	if rep.ChannelDelivered != rep.ChannelSent {
		t.Errorf("side channel: sent %d delivered %d", rep.ChannelSent, rep.ChannelDelivered)
	}
}

// TestChaosSoakReplaysDeterministically re-runs the same seed and expects
// identical injection counts and outcomes — the property that makes any
// soak failure reproducible from its logged seed.
func TestChaosSoakReplaysDeterministically(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := ChaosConfig{Seed: 7, Ops: 120, Records: 40}
	a, err := ChaosSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChaosSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Failed != b.Failed || a.SvcRestarts != b.SvcRestarts || a.ClientRestarts != b.ClientRestarts {
		t.Errorf("replay diverged: %+v vs %+v", a, b)
	}
	for site, sa := range a.Stats {
		if sb := b.Stats[site]; sa != sb {
			t.Errorf("site %s: %+v vs %+v", site, sa, sb)
		}
	}
	_ = chaos.ErrTransient
}

// TestChaosSoakStringIsByteIdentical pins what `repro -chaos` prints: two
// runs of one config render byte-identical reports, per-site lines included.
func TestChaosSoakStringIsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := ChaosConfig{Seed: 7, Ops: 120, Records: 40}
	a, err := ChaosSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChaosSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Stats) < 2 {
		t.Fatalf("only %d sites fired; the report has no order to get wrong", len(a.Stats))
	}
	if sa, sb := a.String(), b.String(); sa != sb {
		t.Errorf("reports differ:\n%s\nvs\n%s", sa, sb)
	}
}
