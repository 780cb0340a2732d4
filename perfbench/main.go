// Command perfbench is the repository benchmark: it drives the simulator
// from outside, through its public packages, on one of three workloads and
// prints every metric by name with its unit. The last line of its output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced; with
// -trace 1 they are the per-layer ones, from a traced phase followed by an
// untraced phase that gives the tracing overhead. See README.md.
//
// Usage (from the root of the checkout; run.sh builds it first):
//
//	perfbench -workload sql-nested -seed 1 -seconds 10 -trace 0
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for the span file
	setups   int    // set-ups timed; setup_s is their median
	small    bool   // shrunken workloads, for the self-tests
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"sql-nested", "fleet-load", "outer-channel"}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "sql-nested":
		cfg := sqlDefault
		if o.small {
			cfg = sqlConfig{Records: 100, RoundQueries: 1000}
		}
		return newSQLNested(o.seed, cfg), nil
	case "fleet-load":
		cfg := fleetDefault
		if o.small {
			cfg = fleetConfig{Apps: 1000, Outers: 4, OuterPages: 8, Warmup: 8}
		}
		return newFleet(o.seed, cfg), nil
	case "outer-channel":
		cfg := channelDefault
		if o.small {
			cfg = channelConfig{RingBytes: 1 << 20, HeapPages: 260, MinRoundMsgs: 1000}
		}
		return newOuterChannel(o.seed, cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is a run's result plus what the self-tests inspect.
type outcome struct {
	result
	phase  *phase // the untraced phase, or the traced one with -trace 1
	tracer *tracer
}

// spansKept bounds the spans kept in memory for the span file.
const spansKept = 1 << 18

// setups is how many set-ups a run times; setup_s is their median.
const setups = 5

func runBench(o options, log io.Writer) (*outcome, error) {
	w, err := newWorkload(o)
	if err != nil {
		return nil, err
	}
	defer w.close()
	setupS, err := timeSetup(w, o.setups)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	fmt.Fprintf(log, "workload %s seed %d: set-up %.3f s (median of %d)\n", o.workload, o.seed, setupS, o.setups)

	if !o.trace {
		p, err := runPhase(w, o.seconds, nil)
		if err != nil {
			return nil, err
		}
		heap := liveHeapMB()
		runtime.KeepAlive(w)
		m, err := endToEnd(p, setupS, heap)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "%d ops in %d rounds, %d failed; host figures are medians over rounds of n=%d, simulated ones over the first round's n=%d\n",
			p.ops, p.rounds, p.failed, int(p.ops)/p.rounds, len(p.sim))
		printRounds(log, p)
		printMetrics(log, m)
		return &outcome{result: result{Correct: p.failed == 0, Attempted: p.ops, Failed: p.failed, Metrics: m}, phase: p}, nil
	}

	tr := newTracer(spansKept)
	pt, err := runPhase(w, o.seconds, tr)
	if err != nil {
		return nil, err
	}
	pu, err := runPhase(w, o.seconds, nil)
	if err != nil {
		return nil, err
	}
	m := perLayer(pt, tr, median(pu.roundRate))
	if o.out != "" {
		path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := tr.writeSpans(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "%d of %d spans written to %s\n", len(tr.spans), tr.next, path)
	}
	fmt.Fprintf(log, "traced: %d ops in %d rounds; untraced: %d ops in %d rounds; %d failed\n",
		pt.ops, pt.rounds, pu.ops, pu.rounds, pt.failed+pu.failed)
	printSpans(log, tr)
	printMetrics(log, m)
	failed := pt.failed + pu.failed
	return &outcome{result: result{Correct: failed == 0, Attempted: pt.ops + pu.ops, Failed: failed, Metrics: m}, phase: pt, tracer: tr}, nil
}

// printRounds prints the spread of the per-round host figures.
func printRounds(w io.Writer, p *phase) {
	for _, r := range []struct {
		name  string
		xs    []float64
		scale float64
	}{{"op/s", p.roundRate, 1}, {"p50 us", p.roundP50, 1e3}, {"p99 us", p.roundP99, 1e3}} {
		s := slices.Sorted(slices.Values(r.xs))
		fmt.Fprintf(w, "  rounds %-7s min %.4g  median %.4g  max %.4g\n", r.name, s[0]/r.scale, median(s)/r.scale, s[len(s)-1]/r.scale)
	}
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %16.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// printSpans prints the per-span self-time summary of a traced phase.
func printSpans(w io.Writer, tr *tracer) {
	fmt.Fprintf(w, "  %-18s %10s %14s %16s\n", "span", "count", "self us/call", "self cyc/call")
	var order []spanName
	for n := spanName(0); n < numSpans; n++ {
		if tr.count[n] > 0 {
			order = append(order, n)
		}
	}
	slices.SortFunc(order, func(a, b spanName) int { return cmp.Compare(tr.selfNs[b], tr.selfNs[a]) })
	for _, n := range order {
		fmt.Fprintf(w, "  %-18s %10d %14.3f %16.1f\n", n, tr.count[n], tr.selfUS(n), tr.selfCycles(n))
	}
}

func main() {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: sql-nested, fleet-load or outer-channel")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the workload's inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "seconds of timed ops per phase (whole rounds)")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.out, "out", "", "directory for the span file of a traced run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if o.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -seconds > 0 and -trace 0 or 1")
		os.Exit(2)
	}
	o.trace, o.setups = *traceFlag == 1, setups
	res, err := runBench(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
