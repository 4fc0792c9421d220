package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ruleIDPattern matches well-formed rule IDs.
var ruleIDPattern = regexp.MustCompile(`^CV[0-9]{3}$`)

// TestCharmvetJSONReport builds cmd/charmvet, runs it with -json over
// fixtures that have findings, and checks the report against the published
// schema: the known version, a list (never null) of findings, each with a
// well-formed rule ID that resolves to a registered analyzer, the check name
// of that rule, a module-relative slash-separated path, a 1-based position
// and a non-empty message. charmvet must exit 1, as it does on any finding
// not in the baseline.
func TestCharmvetJSONReport(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips building cmd/charmvet")
	}
	mod, err := LoadModule(".")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "charmvet")
	build := exec.Command("go", "build", "-o", bin, "./cmd/charmvet")
	build.Dir = mod.Root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	fixtures := []string{"entrysig", "gobsafe", "sendown"}
	args := []string{"-json"}
	for _, f := range fixtures {
		args = append(args, "internal/analysis/testdata/src/"+f)
	}
	cmd := exec.Command(bin, args...)
	cmd.Dir = mod.Root
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("charmvet over fixtures with findings: %v, want exit status 1\n%s", err, stderr.Bytes())
	}

	dec := json.NewDecoder(&stdout)
	dec.DisallowUnknownFields()
	var rep Report
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("bad report: %v", err)
	}
	if dec.More() {
		t.Fatal("trailing data after the report")
	}
	if rep.Version != ReportVersion {
		t.Errorf("report version %d, want %d", rep.Version, ReportVersion)
	}
	if rep.Findings == nil {
		t.Fatal("findings is null, want a list")
	}
	rules := map[string]bool{}
	for i, f := range rep.Findings {
		if !ruleIDPattern.MatchString(f.Rule) {
			t.Errorf("finding %d: malformed rule ID %q", i, f.Rule)
		}
		a := ByID(f.Rule)
		if a == nil {
			t.Errorf("finding %d: unknown rule ID %q", i, f.Rule)
		} else if f.Check != a.Name {
			t.Errorf("finding %d: check %q does not match rule %s (%s)", i, f.Check, f.Rule, a.Name)
		}
		if f.File == "" || strings.Contains(f.File, "\\") || strings.HasPrefix(f.File, "/") ||
			!strings.HasPrefix(f.File, "internal/analysis/testdata/src/") {
			t.Errorf("finding %d: file %q is not a module-relative slash path", i, f.File)
		}
		if f.Line < 1 || f.Col < 1 {
			t.Errorf("finding %d: position %d:%d is not 1-based", i, f.Line, f.Col)
		}
		if f.Message == "" {
			t.Errorf("finding %d: empty message", i)
		}
		rules[f.Check] = true
	}
	for _, f := range fixtures {
		if !rules[f] {
			t.Errorf("no %s finding in the report over its fixture", f)
		}
	}
}
