package analysis

// The golden-fixture harness: each rule has a tiny module tree under
// testdata/src/<rule>/ whose violating lines carry
//
//	// want "<regexp>"
//
// annotations (the regexp must match "rule: message" of a finding on that
// line; one want may cover several findings on its line, e.g. the two
// constructor calls in rand.New(rand.NewSource(...))). The runner enforces
// the correspondence in BOTH directions — a finding without a matching want
// and a want without a matching finding are each a failure — so a fixture
// can never silently stop testing what it claims to (see TestMetaHarness).
import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixtureModule is the synthetic module path fixture trees are loaded under.
// Rule configs match packages by path suffix, so "fix/internal/sgx" is
// classified exactly like the real "nestedenclave/internal/sgx".
const fixtureModule = "fix"

type wantAnn struct {
	file    string
	line    int
	pattern string
	re      *regexp.Regexp
	matched bool
}

// wantRE matches `// want "re"` and, for lines whose trailing comment is
// itself under test (the bad-directive fixtures), the block-comment spelling
// `/* want "re" */`.
var wantRE = regexp.MustCompile("/[/*] want \"((?:[^\"\\\\]|\\\\.)*)\"")

// loadWants scans every .go file under root for want annotations.
func loadWants(root string) ([]*wantAnn, error) {
	var wants []*wantAnn
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
			return err
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					return fmt.Errorf("%s:%d: bad want pattern %q: %v", p, i+1, m[1], err)
				}
				wants = append(wants, &wantAnn{file: p, line: i + 1, pattern: m[1], re: re})
			}
		}
		return nil
	})
	return wants, err
}

// checkFixture loads the fixture tree at root, runs the analyzers, and
// returns one problem string per mismatch between findings and wants. A
// non-nil keep narrows the check to the rules it accepts: a finding takes
// part if keep accepts its rule, a want if keep accepts the rule its pattern
// begins with (the text before the first ':').
func checkFixture(root string, analyzers []*Analyzer, keep func(rule string) bool) ([]string, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := LoadTree(abs, fixtureModule)
	if err != nil {
		return nil, err
	}
	findings := Run(pkgs, analyzers)
	wants, err := loadWants(abs)
	if err != nil {
		return nil, err
	}
	if keep != nil {
		var kept []*wantAnn
		for _, w := range wants {
			rule, _, _ := strings.Cut(w.pattern, ":")
			if keep(rule) {
				kept = append(kept, w)
			}
		}
		if len(kept) == 0 {
			return nil, fmt.Errorf("no want in %s names a selected rule", root)
		}
		wants = kept
	}
	var problems []string
	for _, f := range findings {
		if keep != nil && !keep(f.Rule) {
			continue
		}
		text := f.Rule + ": " + f.Msg
		matched := false
		for _, w := range wants {
			if w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(text) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			problems = append(problems, fmt.Sprintf("unexpected finding %s:%d: %s", f.Pos.Filename, f.Pos.Line, text))
		}
	}
	for _, w := range wants {
		if !w.matched {
			problems = append(problems, fmt.Sprintf("stale want %s:%d: no finding matched %q", w.file, w.line, w.pattern))
		}
	}
	return problems, nil
}

// runFixture asserts a rule's fixture tree and its wants agree exactly.
func runFixture(t *testing.T, rule string, analyzers []*Analyzer) {
	t.Helper()
	runFixtureRules(t, rule, analyzers, nil)
}

// runFixtureRules is runFixture narrowed to the rules keep accepts.
func runFixtureRules(t *testing.T, rule string, analyzers []*Analyzer, keep func(rule string) bool) {
	t.Helper()
	problems, err := checkFixture(filepath.Join("testdata", "src", rule), analyzers, keep)
	if err != nil {
		t.Fatalf("fixture %s: %v", rule, err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

func TestDeterminismFixture(t *testing.T) { runFixture(t, "determinism", []*Analyzer{Determinism}) }
func TestBoundaryFixture(t *testing.T)    { runFixture(t, "boundary", []*Analyzer{Boundary}) }
func TestAttributionFixture(t *testing.T) { runFixture(t, "attribution", []*Analyzer{Attribution}) }
func TestErrCheckFixture(t *testing.T)    { runFixture(t, "errcheck", []*Analyzer{ErrCheck}) }
func TestSpanPairFixture(t *testing.T)    { runFixture(t, "spanpair", []*Analyzer{SpanPair}) }

func TestSecretFlowFixture(t *testing.T) { runFixture(t, "secretflow", []*Analyzer{SecretFlow}) }
func TestAtomicSafetyFixture(t *testing.T) {
	runFixture(t, "atomicsafety", []*Analyzer{AtomicSafety})
}

// The lockgraph tree is checked in two halves: TestLockOrderFixture owns the
// declared-rank findings (machine-level locks before the page-table lock)
// and TestLockGraphFixture every other lockgraph rule (cycles, self-cycles,
// locks held across a transition).
func isRankRule(rule string) bool { return rule == "lockgraph/rank" }

func TestLockGraphFixture(t *testing.T) {
	runFixtureRules(t, "lockgraph", []*Analyzer{LockGraph}, func(rule string) bool { return !isRankRule(rule) })
}
func TestLockOrderFixture(t *testing.T) {
	runFixtureRules(t, "lockgraph", []*Analyzer{LockGraph}, isRankRule)
}

// TestMetaHarness proves the fixture runner itself cannot silently pass: the
// meta tree contains a want annotation on a clean line (stale) and a real
// violation with no want (unexpected), and checkFixture must flag both. If
// this test fails, every green fixture test above is meaningless.
func TestMetaHarness(t *testing.T) {
	problems, err := checkFixture(filepath.Join("testdata", "src", "meta"), []*Analyzer{Determinism, LockGraph}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, wantProblem := range []struct{ prefix, file string }{
		{"stale want ", "stale.go"},
		{"unexpected finding ", "surprise.go"},
		// The same two failure modes for a RunProgram (interprocedural)
		// analyzer: green program-pass fixtures are meaningless otherwise.
		{"stale want ", "progsurprise.go"},
		{"unexpected finding ", "progsurprise.go"},
	} {
		found := false
		for _, p := range problems {
			if strings.HasPrefix(p, wantProblem.prefix) && strings.Contains(p, wantProblem.file) {
				found = true
			}
		}
		if !found {
			t.Errorf("runner did not produce %q for %s; problems: %v",
				wantProblem.prefix, wantProblem.file, problems)
		}
	}
	if len(problems) != 4 {
		t.Errorf("meta fixture should produce exactly 4 problems, got %d: %v", len(problems), problems)
	}
}
