// Command nescheck runs the house static-analysis suite (internal/analysis)
// over the module: eight analyzers that enforce the simulator's own
// invariants — deterministic replay, the trusted/untrusted boundary,
// per-enclave cost attribution, surfaced faults, span pairing, and the
// interprocedural rules (secret flow, atomic/guarded field safety, the
// global lock graph and its declared lock ranks) — at compile time. See DESIGN.md, "Static analysis
// (nescheck)".
//
// Usage:
//
//	nescheck [-root dir] [-stale-allows] [./...]   # analyze the module
//	nescheck -fast [./...]     # only packages changed vs git HEAD (+ deps)
//	nescheck -graph            # dump the call/lock graph and exit
//	nescheck -rules            # print the rule catalog
//
// Findings print as file:line:col: rule: message, one per line; the exit
// status is 1 when findings exist, 2 on load errors. Suppress a finding with
// an explicit, reasoned directive: //nescheck:allow <rule> <reason>.
// -stale-allows additionally reports allow directives that no longer
// suppress anything, so suppressions cannot outlive their findings.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"nestedenclave/internal/analysis"
)

func main() {
	rules := flag.Bool("rules", false, "print the rule catalog and exit")
	root := flag.String("root", "", "module root to analyze (default: the module containing the working directory)")
	staleAllows := flag.Bool("stale-allows", false, "also report //nescheck:allow directives that suppress nothing")
	fast := flag.Bool("fast", false, "analyze only packages with files changed vs git HEAD (plus their dependency closure); cross-package rules see only the subset, so CI still runs the full suite")
	graph := flag.Bool("graph", false, "dump the interprocedural call/lock graph summary and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: nescheck [-root dir] [-stale-allows] [-fast] [./...]\n       nescheck -graph\n       nescheck -rules\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *rules {
		fmt.Println("nescheck rule catalog:")
		for _, a := range analysis.All() {
			kind := "package"
			if a.RunProgram != nil {
				kind = "program"
			}
			fmt.Printf("  %-12s [%s] %s\n", a.Name, kind, a.Doc)
		}
		fmt.Println("\nsuppress with: //nescheck:allow <rule> <reason>  (same line, line above, or before the package clause for the whole file)")
		fmt.Println("program rules run on the module-wide call graph; their findings carry cross-function traces (see TESTING.md)")
		return
	}

	for _, arg := range flag.Args() {
		if arg != "./..." && arg != "all" {
			fmt.Fprintf(os.Stderr, "nescheck: unsupported pattern %q (the suite always analyzes the whole module; use ./...)\n", arg)
			os.Exit(2)
		}
	}

	dir := *root
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			fatal(err)
		}
		dir, err = findModuleRoot(wd)
		if err != nil {
			fatal(err)
		}
	}

	var pkgs []*analysis.Package
	var err error
	if *fast {
		changed, gerr := changedDirs(dir)
		if gerr != nil {
			fatal(fmt.Errorf("-fast needs a git checkout: %w", gerr))
		}
		if len(changed) == 0 {
			fmt.Fprintln(os.Stderr, "nescheck: no changed Go files vs HEAD")
			return
		}
		modPath, merr := analysis.ModulePathOf(dir)
		if merr != nil {
			fatal(merr)
		}
		pkgs, err = analysis.LoadTreeSubset(dir, modPath, func(pkgPath string) bool {
			rel := strings.TrimPrefix(strings.TrimPrefix(pkgPath, modPath), "/")
			return changed[rel]
		})
	} else {
		pkgs, err = analysis.LoadModule(dir)
	}
	if err != nil {
		fatal(err)
	}

	if *graph {
		analysis.BuildProgram(pkgs).DumpGraph(os.Stdout)
		return
	}

	res := analysis.Analyze(pkgs, analysis.All(), analysis.Options{ReportStale: *staleAllows})
	findings := append(res.Findings, res.Stale...)
	for _, f := range findings {
		if rel, err := filepath.Rel(dir, f.Pos.Filename); err == nil && !filepath.IsAbs(rel) {
			f.Pos.Filename = rel
		}
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "nescheck: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// changedDirs returns the set of module-relative directories (slash-separated,
// "" for the root package) holding Go files that differ from HEAD — staged,
// unstaged, and untracked.
func changedDirs(root string) (map[string]bool, error) {
	out := make(map[string]bool)
	for _, args := range [][]string{
		{"diff", "--name-only", "HEAD"},
		{"ls-files", "--others", "--exclude-standard"},
	} {
		cmd := exec.Command("git", args...)
		cmd.Dir = root
		b, err := cmd.Output()
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(b), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasSuffix(line, ".go") || strings.HasSuffix(line, "_test.go") {
				continue
			}
			d := filepath.ToSlash(filepath.Dir(line))
			if d == "." {
				d = ""
			}
			out[d] = true
		}
	}
	return out, nil
}

func findModuleRoot(dir string) (string, error) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("nescheck: no go.mod above %s", dir)
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nescheck:", err)
	os.Exit(2)
}
