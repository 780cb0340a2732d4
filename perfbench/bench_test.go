package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// The self-tests run the shrunken workloads for one round per phase.
func smallRun(t *testing.T, workload string, seed int64, traced bool) *outcome {
	t.Helper()
	o := options{workload: workload, seed: seed, seconds: 1e-6, trace: traced, setups: 1, small: true}
	out, err := runBench(o, io.Discard)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, traced, err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Fatalf("%s seed %d trace %v: correct=%v failed=%d attempted=%d", workload, seed, traced, out.Correct, out.Failed, out.Attempted)
	}
	return out
}

// countMetrics are the per-layer metrics computed from counts and the
// simulated clock alone; a seed fixes them.
var countMetrics = []string{
	"sdk.ecall.self_cycles", "sdk.nocall.self_cycles", "sdk.load_cycles",
	"channel.send_cycles", "channel.recv_cycles",
	"switchless.fallback_ratio", "switchless.max_occupancy",
	"tlb.miss_per_op", "tlb.flush_per_op", "sgx.page_walk_per_op",
	"sgx.validate_step_per_op", "core.nested_validate_per_op",
	"pt.entries", "epc.used_pages", "sgx.pages_added_per_op",
	"channel.full_ratio", "cache.llc_hit_ratio", "mee.lines_per_kib",
}

func TestSameSeedIsByteIdentical(t *testing.T) {
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			a, b := smallRun(t, wl, 7, false), smallRun(t, wl, 7, false)
			for name, m := range a.Metrics {
				if !strings.HasPrefix(name, "sim_") {
					continue
				}
				if x, y := fmt.Sprint(m.Value), fmt.Sprint(b.Metrics[name].Value); x != y {
					t.Errorf("%s: %s then %s", name, x, y)
				}
			}
			ta, tb := smallRun(t, wl, 7, true), smallRun(t, wl, 7, true)
			for _, name := range countMetrics {
				if x, y := fmt.Sprint(ta.Metrics[name].Value), fmt.Sprint(tb.Metrics[name].Value); x != y {
					t.Errorf("%s: %s then %s", name, x, y)
				}
			}
			// Tracing reads the simulated clock but never advances it.
			if !slices.Equal(a.phase.sim, ta.phase.sim) {
				t.Errorf("traced and untraced runs disagree on the simulated cycles per op")
			}
		})
	}
}

func TestSeedChangesOpStream(t *testing.T) {
	sqlOps := func(seed int64) []string {
		var out []string
		for _, q := range sqlStream(seed, sqlConfig{Records: 100, RoundQueries: 200}) {
			out = append(out, q.sql)
		}
		return out
	}
	fleetOps := func(seed int64) []string {
		var out []string
		for _, op := range newFleet(seed, fleetConfig{Apps: 40, Outers: 4, OuterPages: 8}).makePlan(40) {
			out = append(out, fmt.Sprint(op.outer, op.target, op.img.Image.TotalPages()))
		}
		return out
	}
	channelOps := func(seed int64) []string {
		g := newMsgGen(seed)
		var out []string
		for range 40 {
			out = append(out, string(g.next()))
		}
		return out
	}
	for name, stream := range map[string]func(int64) []string{
		"sql-nested": sqlOps, "fleet-load": fleetOps, "outer-channel": channelOps,
	} {
		if !reflect.DeepEqual(stream(1), stream(1)) {
			t.Errorf("%s: one seed gave two op streams", name)
		}
		if reflect.DeepEqual(stream(1), stream(2)) {
			t.Errorf("%s: seeds 1 and 2 gave the same op stream", name)
		}
	}
}

func TestPercentilesHaveTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{1000, 1004, 1810, 10000} {
		if _, beyond := rank(n, 0.99); beyond < 10 {
			t.Errorf("n=%d: %d samples beyond p99", n, beyond)
		}
	}
	if _, err := endToEnd(&phase{rounds: 1, ops: 999, sim: make([]int64, 999)}, 1, 1); err == nil {
		t.Errorf("999 samples passed the p99 check")
	}
	// A round of every workload, default and shrunken, holds 1000 ops.
	if n := sqlDefault.RoundQueries; n < 1000 {
		t.Errorf("sql-nested round of %d queries", n)
	}
	if n := fleetDefault.Apps + fleetDefault.Outers; n < 1000 {
		t.Errorf("fleet-load round of %d loads", n)
	}
	if n := channelDefault.MinRoundMsgs; n < 1000 {
		t.Errorf("outer-channel round of %d messages", n)
	}
	if x := quantile([]int64{5, 1, 4, 2, 3}, 0.5); x != 3 {
		t.Errorf("median of 1..5 is %d", x)
	}
}

// Within every op, the spans' self times add up to no more than the op's
// measured time, on both clocks.
func TestSpanSelfTimesFitTheOp(t *testing.T) {
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			out := smallRun(t, wl, 3, true)
			p, spans := out.phase, out.tracer.spans
			if len(spans) == 0 || len(spans) == spansKept {
				t.Fatalf("%d spans kept", len(spans))
			}
			childNs := map[int32]int64{}
			childCyc := map[int32]int64{}
			for _, s := range spans {
				if s.Parent >= 0 {
					childNs[s.Parent] += s.EndNs - s.StartNs
					childCyc[s.Parent] += s.EndCyc - s.StartCyc
				}
			}
			selfNs := map[int64]int64{}
			selfCyc := map[int64]int64{}
			for _, s := range spans {
				ns, cyc := s.EndNs-s.StartNs-childNs[s.ID], s.EndCyc-s.StartCyc-childCyc[s.ID]
				if ns < 0 || cyc < 0 {
					t.Fatalf("span %+v has negative self time", s)
				}
				selfNs[s.Op] += ns
				selfCyc[s.Op] += cyc
			}
			checked := 0
			for op, ns := range selfNs {
				if op >= int64(len(p.lat)) {
					continue // an op after the first round
				}
				if ns > p.lat[op] {
					t.Errorf("op %d: spans hold %d ns of self time, the op took %d ns", op, ns, p.lat[op])
				}
				if selfCyc[op] > p.sim[op] {
					t.Errorf("op %d: spans hold %d cycles of self time, the op took %d", op, selfCyc[op], p.sim[op])
				}
				checked++
			}
			if checked < 1000 {
				t.Errorf("only %d ops checked", checked)
			}
		})
	}
}

// The metrics each mode prints are exactly the ones BENCHMARK.json names,
// with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames)
	}
	check := func(got map[string]metric, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%d metrics printed, %d named", len(got), len(want))
		}
		for _, m := range want {
			if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("metric %s [%s]: printed %+v (present %v)", m.Name, m.Unit, g, ok)
			}
		}
	}
	check(smallRun(t, "sql-nested", 1, false).Metrics, spec.EndToEnd)
	check(smallRun(t, "sql-nested", 1, true).Metrics, spec.PerLayer)
}
