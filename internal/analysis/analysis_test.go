package analysis

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestFixtures runs each analyzer over its testdata package and compares the
// diagnostics against the `// want "regex"` annotations in the fixture
// source: every want must be matched by a diagnostic on its line, and every
// diagnostic must be expected. The clean package runs the full suite and
// must stay silent — together these are the mutation check that proves each
// analyzer both fires and knows when not to.
func TestFixtures(t *testing.T) {
	cases := []struct {
		dir       string
		analyzers []*Analyzer
	}{
		{"entrysig", []*Analyzer{EntrySig}},
		{"gobsafe", []*Analyzer{GobSafe}},
		{"noblock", []*Analyzer{NoBlock}},
		{"migratesafe", []*Analyzer{MigrateSafe}},
		{"clean", All},
	}

	mod, err := LoadModule(".")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			pkg, err := mod.LoadDir(filepath.Join("testdata", "src", tc.dir))
			if err != nil {
				t.Fatalf("LoadDir(%s): %v", tc.dir, err)
			}
			diags := Run(tc.analyzers, []*Package{pkg}, mod.Fset)
			wants := parseWants(t, mod, pkg)

			matched := map[string]bool{}
			for _, d := range diags {
				key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
				w, ok := wants[key]
				if !ok {
					t.Errorf("unexpected diagnostic: %s", d)
					continue
				}
				if !w.re.MatchString(d.Message) {
					t.Errorf("diagnostic at %s does not match want %q: %s", key, w.pattern, d.Message)
				}
				matched[key] = true
			}
			for key, w := range wants {
				if !matched[key] {
					t.Errorf("missing diagnostic at %s: want %q", key, w.pattern)
				}
			}
		})
	}
}

type want struct {
	pattern string
	re      *regexp.Regexp
}

// parseWants extracts `// want "regex"` annotations, keyed by file:line.
func parseWants(t *testing.T, mod *Module, pkg *Package) map[string]want {
	t.Helper()
	wants := map[string]want{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pattern, err := strconv.Unquote(strings.TrimSpace(rest))
				if err != nil {
					t.Fatalf("bad want comment %q: %v", c.Text, err)
				}
				re, err := regexp.Compile(pattern)
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", pattern, err)
				}
				pos := mod.Fset.Position(c.Pos())
				wants[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] = want{pattern, re}
			}
		}
	}
	return wants
}

// TestSuppression verifies the //charmvet:ignore escape hatch: the same
// violation with an ignore comment produces no diagnostic.
func TestSuppression(t *testing.T) {
	mod, err := LoadModule(".")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	pkg, err := mod.LoadDir(filepath.Join("testdata", "src", "suppress"))
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	diags := Run([]*Analyzer{NoBlock}, []*Package{pkg}, mod.Fset)
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 diagnostic (the unsuppressed one), got %d: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "Unsuppressed") {
		t.Errorf("surviving diagnostic should be the unsuppressed site, got: %s", diags[0])
	}
}

// TestModuleCleanUnderCharmvet is `charmvet ./...` as a test: the repository
// itself must satisfy its own invariants.
func TestModuleCleanUnderCharmvet(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	mod, err := LoadModule(".")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	pkgs, err := mod.Load("./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded (%d); loader regression?", len(pkgs))
	}
	for _, d := range Run(All, pkgs, mod.Fset) {
		t.Errorf("charmvet: %s", d)
	}
}

// TestByName pins the CLI's -checks lookup.
func TestByName(t *testing.T) {
	for _, a := range All {
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not return the analyzer", a.Name)
		}
	}
	if ByName("nope") != nil {
		t.Errorf("ByName(nope) should be nil")
	}
}

// TestLoaderPatterns pins pattern expansion: testdata is excluded from ./...
func TestLoaderPatterns(t *testing.T) {
	mod, err := LoadModule(".")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	pkgs, err := mod.Load("internal/analysis/...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, p := range pkgs {
		if strings.Contains(p.ImportPath, "testdata") {
			t.Errorf("testdata package leaked into pattern expansion: %s", p.ImportPath)
		}
	}
	if len(pkgs) != 1 {
		t.Errorf("internal/analysis/... should match exactly this package, got %d", len(pkgs))
	}
}
