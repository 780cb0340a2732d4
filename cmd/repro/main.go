// Command repro regenerates every table and figure of the paper's
// evaluation (see DESIGN.md for the experiment index):
//
//	repro                      # run everything at default scale
//	repro -only table2,fig11   # a subset
//	repro -full                # paper-scale parameters (slow, needs RAM)
//	repro -list                # list experiment names
//	repro -json results/       # also write BENCH_<name>.json snapshots
//	repro -http :6060          # expose expvar + pprof while running
//	repro -chaos -seed 7       # fault-injection soak (see TESTING.md)
//	repro -adversary           # adversarial-kernel campaign (see TESTING.md)
//	repro -adversary -strategy blob_replay -seed 7 -ops 1   # replay one attack
//	repro -gate baselines      # perf regression gate against committed BENCH_*.json
//	repro -exhaustive          # exhaustive small-scope model checking (see TESTING.md)
//
// Output is printed as aligned text tables; each carries a note with the
// paper's reported numbers for comparison. With -json, every experiment
// additionally persists its merged counter/histogram snapshot (simulated
// cycles, per-event counts, latency distributions) as BENCH_<name>.json in
// the given directory. With -http, the process serves /debug/vars (the
// nesclave_experiments expvar) and /debug/pprof on the given address for
// live inspection of long -full runs.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"nestedenclave/internal/adversary"
	"nestedenclave/internal/bench"
	"nestedenclave/internal/simtest"
	"nestedenclave/internal/trace"
	"nestedenclave/internal/ycsb"
)

type experiment struct {
	name string
	desc string
	run  func(full bool) error
}

func experiments() []experiment {
	return []experiment{
		{"table2", "enclave transition latencies", func(full bool) error {
			iters := 100_000
			if full {
				iters = 1_000_000 // the paper's count
			}
			res, err := bench.TableII(iters)
			if err != nil {
				return err
			}
			fmt.Println(res.Render())
			return nil
		}},
		{"table3", "modified LOC for porting", func(bool) error {
			fmt.Println(bench.RenderTableIII(bench.TableIII()))
			return nil
		}},
		{"table4", "MLS data classification", func(bool) error {
			fmt.Println(bench.TableIV())
			return nil
		}},
		{"table5", "dataset shapes", func(bool) error {
			fmt.Println(bench.TableVRender())
			return nil
		}},
		{"table6", "SQLite YCSB throughput", func(full bool) error {
			cfg := ycsb.DefaultConfig()
			if !full {
				cfg.Operations = 3000
			}
			rows, err := bench.TableVI(cfg, 1)
			if err != nil {
				return err
			}
			fmt.Println(bench.RenderTableVI(rows))
			return nil
		}},
		{"table7", "security analysis (executed attacks)", func(bool) error {
			rows, err := bench.TableVII()
			if err != nil {
				return err
			}
			fmt.Println(bench.RenderTableVII(rows))
			return nil
		}},
		{"fig7", "echo server throughput", func(full bool) error {
			msgs := 3000
			if full {
				msgs = 20_000
			}
			rows, err := bench.Figure7(bench.Figure7Chunks(), msgs)
			if err != nil {
				return err
			}
			fmt.Println(bench.RenderFigure7(rows))
			return nil
		}},
		{"fig9", "LibSVM train/predict", func(full bool) error {
			scale := 0.02
			if full {
				scale = 0.2 // full Table V sizes are hours of SMO; 0.2 preserves the ratios
			}
			rows, err := bench.Figure9(scale)
			if err != nil {
				return err
			}
			fmt.Println(bench.RenderFigure9(rows, scale))
			return nil
		}},
		{"sqlservice", "nested SQL service under the span profiler", func(full bool) error {
			q := 300
			if full {
				q = 3000
			}
			p, err := bench.ProfileSQLService(bench.ProfileConfig{Queries: q})
			if err != nil {
				return err
			}
			fmt.Print(p.RenderTree())
			fmt.Print(p.RenderAgreements())
			return nil
		}},
		{"fig10", "enclave loading and footprint", func(full bool) error {
			cfg := bench.DefaultFigure10Config()
			if full {
				cfg.Apps = 500
				cfg.SSLOuters = []int{500, 250, 100, 50, 10, 1}
			}
			rows, err := bench.Figure10(cfg)
			if err != nil {
				return err
			}
			fmt.Println(bench.RenderFigure10(rows, cfg))
			return nil
		}},
		{"fig11", "MEE vs GCM channel throughput", func(full bool) error {
			traffic := 0 // 2x footprint
			footprints := bench.Figure11Footprints()
			chunks := bench.Figure11Chunks()
			if !full {
				chunks = []int{64, 1024, 16384, 65536}
			}
			rows, err := bench.Figure11(footprints, chunks, traffic)
			if err != nil {
				return err
			}
			fmt.Println(bench.RenderFigure11(rows))
			return nil
		}},
		{"switchless", "switchless vs synchronous hot ocall", func(full bool) error {
			iters := 2000
			if full {
				iters = 50_000
			}
			res, err := bench.Switchless(iters)
			if err != nil {
				return err
			}
			fmt.Println(bench.RenderSwitchless(res))
			return nil
		}},
		{"ablation", "design-choice ablations", func(full bool) error {
			iters := 20_000
			if !full {
				iters = 5_000
			}
			tr, err := bench.AblationTransitionPath(iters)
			if err != nil {
				return err
			}
			fmt.Println(bench.RenderAblationTransition(tr))
			sd, err := bench.AblationShootdown(50)
			if err != nil {
				return err
			}
			fmt.Println(bench.RenderAblationShootdown(sd))
			tf, err := bench.AblationTLBFlush(iters)
			if err != nil {
				return err
			}
			fmt.Println(bench.RenderAblationTLBFlush(tf))
			dp, err := bench.AblationNestingDepth(nil)
			if err != nil {
				return err
			}
			fmt.Println(bench.RenderAblationDepth(dp))
			return nil
		}},
	}
}

// writeSnapshot persists the experiment's merged observability snapshot as
// BENCH_<name>.json in dir.
func writeSnapshot(dir string, snap *bench.ExperimentSnapshot) error {
	b, err := bench.MarshalSnapshot(snap)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+snap.Name+".json")
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// gateExperiments names the headline experiments with committed baselines;
// `repro -gate <dir>` re-runs exactly these.
var gateExperiments = []string{"table2", "sqlservice", "fig9", "switchless"}

// runGate is the -gate mode: re-run the headline experiments and compare
// their cycle-derived metrics against the BENCH_<name>.json baselines in
// dir, failing on any regression beyond tol.
func runGate(dir string, tol float64) error {
	exps := experiments()
	byName := map[string]experiment{}
	for _, e := range exps {
		byName[e.name] = e
	}
	failed := false
	for _, name := range gateExperiments {
		base, err := bench.LoadSnapshot(filepath.Join(dir, "BENCH_"+name+".json"))
		if err != nil {
			return fmt.Errorf("baseline for %s: %w (regenerate with: repro -only %s -json %s)",
				name, err, strings.Join(gateExperiments, ","), dir)
		}
		e, ok := byName[name]
		if !ok {
			return fmt.Errorf("gate experiment %q not defined", name)
		}
		fmt.Printf("--- gate %s ---\n", name)
		bench.BeginExperiment(name)
		runErr := e.run(false)
		snap := bench.EndExperiment()
		if runErr != nil {
			return fmt.Errorf("%s: %w", name, runErr)
		}
		if snap == nil {
			return fmt.Errorf("%s produced no snapshot", name)
		}
		results := bench.CompareGate(base, snap, tol)
		fmt.Print(bench.RenderGate(name, results, false))
		if bench.GateFailed(results) {
			failed = true
		}
	}
	if failed {
		return fmt.Errorf("gated metrics regressed beyond tolerance")
	}
	fmt.Println("perf gate: all gated metrics within tolerance")
	return nil
}

// runChaos is the -chaos soak mode: the nested SQL service driven under
// active fault injection with self-healing supervision (see TESTING.md for
// the knob/replay recipe). Exit status 1 when the soak finds a violation.
func runChaos(seed uint64, ops int) error {
	cfg := bench.ChaosConfig{Seed: seed, Ops: ops}
	fmt.Printf("--- chaos soak: seed %#x, %d ops ---\n", cfg.Seed, cfg.Ops)
	rep, err := bench.ChaosSoak(cfg)
	if err != nil {
		return fmt.Errorf("soak did not complete: %w", err)
	}
	fmt.Print(rep)
	if rep.TotalInjected() == 0 {
		return fmt.Errorf("injector fired nothing; soak vacuous")
	}
	if len(rep.Violations) > 0 {
		return fmt.Errorf("%d violations", len(rep.Violations))
	}
	fmt.Printf("replay with: repro -chaos -seed %#x -ops %d\n", cfg.Seed, cfg.Ops)
	return nil
}

// runAdversary is the -adversary mode: the malicious-kernel campaign. With
// no -strategy, every catalog strategy runs and the scoreboard is printed;
// with one, that single attack program runs and its transcript is printed —
// the replay path for a scoreboard row. Exit status 1 on any breach.
func runAdversary(strategy string, seed uint64, ops int, opsSet bool) error {
	if strategy == "" {
		fmt.Printf("--- adversarial kernel campaign: seed %#x ---\n", seed)
		results, err := bench.RunCampaign(seed)
		if err != nil {
			return err
		}
		fmt.Println(bench.Scoreboard(results))
		for _, r := range results {
			if r.Verdict == bench.VerdictBreach {
				return fmt.Errorf("strategy %s breached the defend-or-detect contract: %v",
					r.Program.Strategy, r.Err)
			}
		}
		fmt.Printf("campaign clean; replay with: repro -adversary -seed %#x\n", seed)
		return nil
	}
	s, err := adversary.ParseStrategy(strategy)
	if err != nil {
		return err
	}
	p := bench.DefaultProgram(s, seed)
	if opsSet {
		p.Ops = ops
	}
	res, err := bench.RunAttack(p)
	if err != nil {
		return err
	}
	fmt.Print(res.Transcript)
	fmt.Printf("verdict: %s", res.Verdict)
	if res.Detection != "" {
		fmt.Printf(" (%s, latency %d cycles)", res.Detection, res.DetectLatency)
	}
	fmt.Println()
	if res.Verdict == bench.VerdictBreach {
		return fmt.Errorf("breach: %v", res.Err)
	}
	fmt.Printf("replay with: repro %s\n", p)
	return nil
}

// runExhaustive is the -exhaustive mode: systematic enumeration of every
// schedule at the small 2-core × 2-slot scope up to the depth horizon, each
// interleaving diffed against the oracle and audited against the §VII-A
// invariants (`make modelcheck` drives this at depth 8). Exit status 1 on a
// counterexample — printed in the regress_test.go replay format — or when
// the reduction machinery prunes less than minPrune of the branch
// candidates (a sign the scope outgrew the reductions).
func runExhaustive(depth, maxDepth int, multiOuter, por bool, minPrune float64) error {
	fmt.Printf("--- exhaustive model check: 2 cores x 2 slots, depth %d, nesting %d, multiouter=%v, por=%v ---\n",
		depth, maxDepth, multiOuter, por)
	//nescheck:allow determinism progress reporting records host wall time, not simulated state
	start := time.Now()
	stats, ce := simtest.Explore(simtest.ExploreConfig{
		Depth:      depth,
		MaxDepth:   maxDepth,
		MultiOuter: multiOuter,
		DisablePOR: !por,
	})
	//nescheck:allow determinism progress reporting records host wall time, not simulated state
	fmt.Printf("%s in %v\n", stats.StatsLine(), time.Since(start).Round(time.Millisecond))
	if ce != nil {
		fmt.Println(ce)
		return fmt.Errorf("divergence at depth %d (replay the minimal schedule via regress_test.go)", depth)
	}
	if stats.Truncated {
		return fmt.Errorf("exploration truncated before covering the scope")
	}
	if ratio := stats.PruneRatio(); ratio < minPrune {
		return fmt.Errorf("pruning ratio %.2f below the %.2f floor", ratio, minPrune)
	}
	fmt.Printf("exhaustive pass clean: every interleaving at scope diffed and audited\n")
	return nil
}

func main() {
	full := flag.Bool("full", false, "run at the paper's scale (slow; fig10 needs several GB of RAM)")
	only := flag.String("only", "", "comma-separated experiment names (default: all)")
	list := flag.Bool("list", false, "list experiment names and exit")
	jsonDir := flag.String("json", "", "directory to write per-experiment BENCH_<name>.json snapshots")
	httpAddr := flag.String("http", "", "serve expvar (/debug/vars) and pprof (/debug/pprof) on this address")
	chaosMode := flag.Bool("chaos", false, "run the fault-injection soak instead of the experiments")
	chaosSeed := flag.Uint64("seed", 0xC0FFEE, "chaos soak: injector seed (same seed replays the same run)")
	chaosOps := flag.Int("ops", 1000, "chaos soak: number of YCSB operations; adversary: attack op budget")
	advMode := flag.Bool("adversary", false, "run the adversarial-kernel campaign instead of the experiments")
	advStrategy := flag.String("strategy", "", "adversary: run a single strategy ("+strings.Join(adversary.StrategyNames(), ", ")+")")
	gateDir := flag.String("gate", "", "compare gated metrics against BENCH_*.json baselines in this directory (perf regression gate)")
	gateTol := flag.Float64("gate-tol", bench.GateTolerance, "gate: relative regression tolerance")
	exhaustive := flag.Bool("exhaustive", false, "run the exhaustive small-scope model check instead of the experiments")
	mcDepth := flag.Int("mc-depth", 8, "exhaustive: schedule horizon (ops per interleaving)")
	mcMaxDepth := flag.Int("mc-maxdepth", 2, "exhaustive: maximum enclave nesting depth")
	mcMultiOuter := flag.Bool("mc-multiouter", false, "exhaustive: enable the multi-outer lattice extension")
	mcPOR := flag.Bool("mc-por", true, "exhaustive: enable partial-order reduction")
	mcMinPrune := flag.Float64("mc-min-prune", 0.5, "exhaustive: fail below this pruned fraction of branch candidates")
	flag.Parse()

	if *exhaustive {
		if err := runExhaustive(*mcDepth, *mcMaxDepth, *mcMultiOuter, *mcPOR, *mcMinPrune); err != nil {
			fmt.Fprintf(os.Stderr, "modelcheck: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *advMode {
		opsSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "ops" {
				opsSet = true
			}
		})
		if err := runAdversary(*advStrategy, *chaosSeed, *chaosOps, opsSet); err != nil {
			fmt.Fprintf(os.Stderr, "adversary: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *chaosMode {
		if err := runChaos(*chaosSeed, *chaosOps); err != nil {
			fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *gateDir != "" {
		if err := runGate(*gateDir, *gateTol); err != nil {
			fmt.Fprintf(os.Stderr, "perf gate: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *httpAddr != "" {
		bench.PublishExpvar()
		// The span profiler's output from the most recent sqlservice run:
		// folded stacks (flamegraph.pl/speedscope input) and Chrome
		// trace_event flame data (chrome://tracing, ui.perfetto.dev).
		http.HandleFunc("/debug/nesclave/profile", func(w http.ResponseWriter, _ *http.Request) {
			p := bench.LastProfile()
			if p == nil {
				http.Error(w, "no profile collected yet (run the sqlservice experiment)", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, p.RenderFolded())
		})
		http.HandleFunc("/debug/nesclave/flame", func(w http.ResponseWriter, _ *http.Request) {
			p := bench.LastProfile()
			if p == nil {
				http.Error(w, "no profile collected yet (run the sqlservice experiment)", http.StatusNotFound)
				return
			}
			b, err := trace.SpansToChrome(p.Spans, 0)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(b)
		})
		go func() {
			if err := http.ListenAndServe(*httpAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "repro: http endpoint: %v\n", err)
			}
		}()
		fmt.Printf("debug endpoint on %s (/debug/vars, /debug/pprof, /debug/nesclave/{profile,flame})\n", *httpAddr)
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "repro: -json dir: %v\n", err)
			os.Exit(2)
		}
	}

	exps := experiments()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-10s %s\n", e.name, e.desc)
		}
		return
	}
	want := map[string]bool{}
	if *only != "" {
		for _, n := range strings.Split(*only, ",") {
			n = strings.TrimSpace(n)
			if !slices.ContainsFunc(exps, func(e experiment) bool { return e.name == n }) {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", n)
				os.Exit(2)
			}
			want[n] = true
		}
	}
	failed := false
	for _, e := range exps {
		if len(want) > 0 && !want[e.name] {
			continue
		}
		fmt.Printf("--- %s: %s ---\n", e.name, e.desc)
		bench.BeginExperiment(e.name)
		//nescheck:allow determinism experiment snapshots record host wall time alongside simulated cycles
		start := time.Now()
		err := e.run(*full)
		snap := bench.EndExperiment()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			failed = true
			continue
		}
		if snap != nil {
			//nescheck:allow determinism experiment snapshots record host wall time alongside simulated cycles
			snap.WallMS = float64(time.Since(start).Microseconds()) / 1e3
			if *jsonDir != "" {
				if werr := writeSnapshot(*jsonDir, snap); werr != nil {
					fmt.Fprintf(os.Stderr, "%s: snapshot: %v\n", e.name, werr)
					failed = true
				}
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}
