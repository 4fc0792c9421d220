package analysis

import (
	"go/token"
	"path/filepath"
	"testing"
)

func fakeFinding(rule, check, file, msg string, line int) Finding {
	return Finding{Rule: rule, Check: check, File: file, Line: line, Col: 3, Message: msg}
}

// TestNewFinding pins the JSON shape: stable ID resolution, module-relative
// slash paths.
func TestNewFinding(t *testing.T) {
	d := Diagnostic{
		Pos:     token.Position{Filename: filepath.Join("/mod", "internal", "core", "x.go"), Line: 7, Column: 9},
		Check:   "sendown",
		Message: "boom",
	}
	f := NewFinding(d, "/mod")
	if f.Rule != "CV005" || f.Check != "sendown" {
		t.Errorf("rule resolution: got %q/%q", f.Rule, f.Check)
	}
	if f.File != "internal/core/x.go" {
		t.Errorf("file not module-relative slash path: %q", f.File)
	}
	if f.Line != 7 || f.Col != 9 {
		t.Errorf("position: got %d:%d", f.Line, f.Col)
	}
}

// TestBaselineRoundTrip: write, read back, filter, stale detection, and
// justification preservation across a regeneration.
func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")

	old := fakeFinding("CV007", "aliasescape", "a/b.go", "kept alias", 10)
	fixed := fakeFinding("CV002", "gobsafe", "a/c.go", "hidden field", 4)
	if err := WriteBaseline(path, []Finding{old, fixed}, nil); err != nil {
		t.Fatalf("WriteBaseline: %v", err)
	}
	b, err := ReadBaseline(path)
	if err != nil {
		t.Fatalf("ReadBaseline: %v", err)
	}
	if len(b.Entries) != 2 {
		t.Fatalf("entries: got %d, want 2", len(b.Entries))
	}

	// A baselined finding moving to another line still matches; a new one
	// does not.
	moved := old
	moved.Line = 99
	fresh := fakeFinding("CV007", "aliasescape", "a/d.go", "kept alias", 1)
	got, accepted := b.Filter([]Finding{moved, fresh})
	if len(got) != 1 || got[0] != fresh {
		t.Errorf("Filter fresh: got %v", got)
	}
	if len(accepted) != 1 || accepted[0] != moved {
		t.Errorf("Filter accepted: got %v", accepted)
	}

	// The fixed finding's entry is stale.
	stale := b.Stale([]Finding{moved})
	if len(stale) != 1 || stale[0].File != "a/c.go" {
		t.Errorf("Stale: got %v", stale)
	}

	// Regenerating keeps the justification of the surviving entry.
	// (Entries are sorted by rule, so locate them rather than assume order.)
	for i := range b.Entries {
		if b.Entries[i].Rule == "CV007" {
			b.Entries[i].Justification = "intentional: documented in DESIGN.md"
		} else {
			b.Entries[i].Justification = "goes away"
		}
	}
	if err := WriteBaseline(path, []Finding{moved}, b); err != nil {
		t.Fatalf("WriteBaseline(regen): %v", err)
	}
	b2, err := ReadBaseline(path)
	if err != nil {
		t.Fatalf("ReadBaseline(regen): %v", err)
	}
	if len(b2.Entries) != 1 {
		t.Fatalf("regen entries: got %d, want 1", len(b2.Entries))
	}
	want := BaselineEntry{Rule: "CV007", File: "a/b.go", Message: "kept alias"}
	if b2.Entries[0].Rule != want.Rule || b2.Entries[0].File != want.File || b2.Entries[0].Message != want.Message {
		t.Errorf("regen entry: got %+v", b2.Entries[0])
	}
	if b2.Entries[0].Justification != "intentional: documented in DESIGN.md" {
		t.Errorf("justification not preserved: %q", b2.Entries[0].Justification)
	}
}

// TestReadBaselineMissing: no file means an empty baseline.
func TestReadBaselineMissing(t *testing.T) {
	b, err := ReadBaseline(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil {
		t.Fatalf("ReadBaseline(missing): %v", err)
	}
	if len(b.Entries) != 0 {
		t.Errorf("missing baseline should be empty, got %d entries", len(b.Entries))
	}
}

// TestRuleIDs pins every analyzer's stable ID: well-formed, unique, and
// resolvable both ways.
func TestRuleIDs(t *testing.T) {
	seen := map[string]string{}
	for _, a := range All {
		if !ruleIDPattern.MatchString(a.ID) {
			t.Errorf("%s: malformed ID %q", a.Name, a.ID)
		}
		if prev, dup := seen[a.ID]; dup {
			t.Errorf("ID %s assigned to both %s and %s", a.ID, prev, a.Name)
		}
		seen[a.ID] = a.Name
		if ByID(a.ID) != a {
			t.Errorf("ByID(%s) did not return %s", a.ID, a.Name)
		}
	}
}
