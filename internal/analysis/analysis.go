// Package analysis is nescheck: a stdlib-only static-analysis suite that
// enforces the simulator's own invariants at build time. The dynamic
// harnesses (the model-checking oracle, the chaos soak) verify the paper's
// isolation properties at runtime, but they silently rely on preconditions —
// deterministic replay, the trusted/untrusted boundary, lock ordering,
// complete cost attribution, surfaced faults — that nothing else guards. The
// analyzers here pin those preconditions at the source level:
//
//	determinism  — no wall clock, global RNG state, or order-dependent map
//	               iteration in replay-critical packages
//	boundary     — trusted enclave code must not write to untrusted sinks
//	               (console, trace events) at all unless sealed
//	attribution  — calls into the billed memory hierarchy (epc, mee) thread
//	               BillEID/ChargeTo so per-enclave accounting stays complete
//	errcheck     — fault-returning APIs (mee.New, kos allocation, the sdk
//	               ECall family) may not have their errors discarded
//	spanpair     — every Recorder.BeginSpan in the span-opening layers (sdk,
//	               sgx, core) has its End called on all paths
//	secretflow   — secrets (seal keys, the REPORT MAC key, unsealed
//	               plaintext) do not reach host-visible sinks, traced
//	               through the call graph
//	atomicsafety — a field accessed via sync/atomic is never touched
//	               plainly; //nescheck:guard fields only under their lock
//	lockgraph    — the module-wide lock graph is acyclic, follows the
//	               declared ranks (machine locks before the page-table
//	               lock), and no lock is held across a domain transition
//
// Findings carry a rule ID (family/check) and can be suppressed with an
// explicit, reasoned directive:
//
//	//nescheck:allow <rule-family> <reason...>
//
// placed on the offending line, the line above it, or — before the package
// clause — for the whole file. A directive without a reason is itself a
// finding. The suite is built only on go/parser, go/types and go/importer;
// it loads the whole module from source with no third-party dependencies.
package analysis

import (
	"fmt"
	"go/token"
	"regexp"
	"sort"
)

// Finding is one rule violation.
type Finding struct {
	Pos  token.Position
	Rule string // "family/check", e.g. "determinism/wallclock"
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// ruleFamily returns the part of a rule ID before the first '/': the name a
// //nescheck:allow directive suppresses.
func ruleFamily(rule string) string {
	for i := 0; i < len(rule); i++ {
		if rule[i] == '/' {
			return rule[:i]
		}
	}
	return rule
}

// Analyzer is one house rule. Per-package rules set Run; interprocedural
// rules set RunProgram and receive the module-wide call graph and summaries.
// Exactly one of the two must be set.
type Analyzer struct {
	// Name is the rule family ("determinism", "lockgraph", ...). Every
	// finding the analyzer reports must use "Name" or "Name/<check>" as its
	// rule ID.
	Name string
	// Doc is the one-line invariant the rule enforces, shown by -rules.
	Doc string
	// Run inspects one type-checked package and reports findings.
	Run func(*Pass)
	// RunProgram inspects the whole module at once, over the interprocedural
	// summaries of a Program.
	RunProgram func(*ProgramPass)
}

// All returns the full rule catalog in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		Boundary,
		Attribution,
		ErrCheck,
		SpanPair,
		SecretFlow,
		AtomicSafety,
		LockGraph,
	}
}

// Pass is the per-(analyzer, package) context handed to Analyzer.Run.
type Pass struct {
	Pkg *Package

	analyzer *Analyzer
	allow    *allowIndex
	sink     *[]Finding
}

// Reportf records a finding unless an allow directive covers it.
func (p *Pass) Reportf(pos token.Pos, rule, format string, args ...any) {
	if ruleFamily(rule) != p.analyzer.Name {
		panic(fmt.Sprintf("analysis: analyzer %s reported foreign rule %s", p.analyzer.Name, rule))
	}
	position := p.Pkg.Fset.Position(pos)
	if p.allow.allows(position, ruleFamily(rule)) {
		return
	}
	*p.sink = append(*p.sink, Finding{Pos: position, Rule: rule, Msg: fmt.Sprintf(format, args...)})
}

// ProgramPass is the module-wide context handed to Analyzer.RunProgram.
type ProgramPass struct {
	Prog *Program

	analyzer *Analyzer
	allow    *allowIndex
	fset     *token.FileSet
	sink     *[]Finding
}

// Reportf records a finding unless an allow directive covers it.
func (p *ProgramPass) Reportf(pos token.Pos, rule, format string, args ...any) {
	if ruleFamily(rule) != p.analyzer.Name {
		panic(fmt.Sprintf("analysis: analyzer %s reported foreign rule %s", p.analyzer.Name, rule))
	}
	position := p.fset.Position(pos)
	if p.allow.allows(position, ruleFamily(rule)) {
		return
	}
	*p.sink = append(*p.sink, Finding{Pos: position, Rule: rule, Msg: fmt.Sprintf(format, args...)})
}

// Posn renders a position for use inside finding messages (trace steps).
func (p *ProgramPass) Posn(pos token.Pos) string {
	ps := p.fset.Position(pos)
	return fmt.Sprintf("%s:%d", shortFile(ps.Filename), ps.Line)
}

// shortFile trims a filename to its last two path elements — enough to
// identify "sgx/machine.go" without the noise of an absolute module path.
func shortFile(name string) string {
	slash := 0
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '/' || name[i] == '\\' {
			slash++
			if slash == 2 {
				return name[i+1:]
			}
		}
	}
	return name
}

// Options configures Analyze.
type Options struct {
	// ReportStale adds stale //nescheck:allow directives to Result.Stale.
	// Only set it when running the FULL catalog: a partial run cannot tell a
	// stale directive from one whose rule was skipped.
	ReportStale bool
	// Prog, when non-nil, is reused instead of building the call graph from
	// scratch (the loader's memoized program for lint-fast).
	Prog *Program
}

// Result is Analyze's outcome.
type Result struct {
	Findings []Finding
	// Stale holds one "nescheck/stale-allow" finding per directive that
	// suppressed nothing (empty unless Options.ReportStale).
	Stale []Finding
}

// Run applies the analyzers to every package and returns the surviving
// findings sorted by position. Malformed //nescheck:allow directives are
// reported under the non-suppressible rule "nescheck/bad-directive".
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	return Analyze(pkgs, analyzers, Options{}).Findings
}

// Analyze runs per-package analyzers package by package, builds the
// interprocedural Program if any analyzer needs it, runs the program-level
// analyzers, and optionally reports stale allow directives.
func Analyze(pkgs []*Package, analyzers []*Analyzer, opts Options) Result {
	var findings []Finding
	merged := newAllowIndex()
	for _, pkg := range pkgs {
		idx, bad := buildAllowIndex(pkg)
		findings = append(findings, bad...)
		merged.absorb(idx)
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{Pkg: pkg, analyzer: a, allow: idx, sink: &findings}
			a.Run(pass)
		}
	}
	var prog *Program
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		if prog == nil {
			prog = opts.Prog
			if prog == nil {
				prog = BuildProgram(pkgs)
			}
			findings = append(findings, prog.badGuards...)
		}
		pass := &ProgramPass{Prog: prog, analyzer: a, allow: merged, fset: prog.fset, sink: &findings}
		a.RunProgram(pass)
	}
	sortFindings(findings)
	res := Result{Findings: findings}
	if opts.ReportStale {
		res.Stale = merged.stale()
		sortFindings(res.Stale)
	}
	return res
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}

// pathMatches reports whether a package import path is, or ends with, the
// given module-relative suffix. Matching by suffix lets the same rule config
// cover both the real tree ("nestedenclave/internal/mee") and the golden
// fixtures ("fix/internal/mee").
func pathMatches(path, suffix string) bool {
	if path == suffix {
		return true
	}
	if len(path) > len(suffix) && path[len(path)-len(suffix)-1] == '/' &&
		path[len(path)-len(suffix):] == suffix {
		return true
	}
	return false
}

func pathMatchesAny(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if pathMatches(path, s) {
			return true
		}
	}
	return false
}

var rulePattern = regexp.MustCompile(`^[a-z][a-z0-9-]*$`)
