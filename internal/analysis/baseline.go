package analysis

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// baseline.go is the machine-readable output and suppression layer behind
// `charmvet -json`. A Finding is one diagnostic with a stable rule ID and a
// module-relative path; a Report is the JSON document charmvet emits (its
// schema is held by TestCharmvetJSONReport). The baseline file records
// findings that are accepted for now: charmvet subtracts it before deciding
// its exit status, so CI can require "no new findings" without requiring a
// flag-day cleanup. Baseline
// entries deliberately omit line and column — unrelated edits above a
// finding must not churn the file — so a finding matches on (rule, file,
// message).

// ReportVersion is the schema version of charmvet's -json output. Bump only
// on incompatible changes; TestCharmvetJSONReport rejects any other version.
const ReportVersion = 1

// Finding is one diagnostic in machine-readable form.
type Finding struct {
	Rule    string `json:"rule"`  // stable ID, e.g. "CV007"
	Check   string `json:"check"` // human name, e.g. "aliasescape"
	File    string `json:"file"`  // module-relative, forward slashes
	Line    int    `json:"line"`  // 1-based
	Col     int    `json:"col"`   // 1-based
	Message string `json:"message"`
}

// Report is the top-level -json document.
type Report struct {
	Version  int       `json:"version"`
	Findings []Finding `json:"findings"`
}

// NewFinding converts a diagnostic to a Finding, making the path relative to
// the module root (slash-separated) when possible.
func NewFinding(d Diagnostic, modRoot string) Finding {
	file := d.Pos.Filename
	if modRoot != "" {
		if rel, err := filepath.Rel(modRoot, file); err == nil {
			file = rel
		}
	}
	rule := ""
	if a := ByName(d.Check); a != nil {
		rule = a.ID
	}
	return Finding{
		Rule:    rule,
		Check:   d.Check,
		File:    filepath.ToSlash(file),
		Line:    d.Pos.Line,
		Col:     d.Pos.Column,
		Message: d.Message,
	}
}

// BaselineEntry identifies one accepted finding. Justification is free text
// explaining why the finding is accepted rather than fixed; it is for the
// human reading the file and never matched.
type BaselineEntry struct {
	Rule          string `json:"rule"`
	File          string `json:"file"`
	Message       string `json:"message"`
	Justification string `json:"justification,omitempty"`
}

// Baseline is the committed suppression file (charmvet_baseline.json).
type Baseline struct {
	Version int             `json:"version"`
	Entries []BaselineEntry `json:"entries"`
}

// ReadBaseline loads a baseline file. A missing file is an empty baseline,
// not an error: a repo without one simply accepts nothing.
func ReadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &Baseline{Version: ReportVersion}, nil
	}
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if b.Version != ReportVersion {
		return nil, fmt.Errorf("%s: baseline version %d, want %d", path, b.Version, ReportVersion)
	}
	return &b, nil
}

// WriteBaseline writes the findings as a fresh baseline, deduplicated and
// sorted for stable diffs. Existing justifications for entries that are
// still live are preserved from prev (may be nil).
func WriteBaseline(path string, findings []Finding, prev *Baseline) error {
	just := map[BaselineEntry]string{}
	if prev != nil {
		for _, e := range prev.Entries {
			just[BaselineEntry{Rule: e.Rule, File: e.File, Message: e.Message}] = e.Justification
		}
	}
	seen := map[BaselineEntry]bool{}
	b := Baseline{Version: ReportVersion}
	for _, f := range findings {
		e := BaselineEntry{Rule: f.Rule, File: f.File, Message: f.Message}
		if seen[e] {
			continue
		}
		seen[e] = true
		e.Justification = just[e]
		b.Entries = append(b.Entries, e)
	}
	sort.Slice(b.Entries, func(i, j int) bool {
		a, c := b.Entries[i], b.Entries[j]
		if a.Rule != c.Rule {
			return a.Rule < c.Rule
		}
		if a.File != c.File {
			return a.File < c.File
		}
		return a.Message < c.Message
	})
	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Filter splits findings into those not covered by the baseline (new) and
// those covered (accepted). Entry order is preserved.
func (b *Baseline) Filter(findings []Finding) (fresh, accepted []Finding) {
	keys := map[BaselineEntry]bool{}
	for _, e := range b.Entries {
		keys[BaselineEntry{Rule: e.Rule, File: e.File, Message: e.Message}] = true
	}
	for _, f := range findings {
		if keys[BaselineEntry{Rule: f.Rule, File: f.File, Message: f.Message}] {
			accepted = append(accepted, f)
		} else {
			fresh = append(fresh, f)
		}
	}
	return fresh, accepted
}

// Stale returns baseline entries that matched none of the findings: fixed
// (or renamed) violations whose suppression should be deleted so it cannot
// mask a future regression.
func (b *Baseline) Stale(findings []Finding) []BaselineEntry {
	live := map[BaselineEntry]bool{}
	for _, f := range findings {
		live[BaselineEntry{Rule: f.Rule, File: f.File, Message: f.Message}] = true
	}
	var out []BaselineEntry
	for _, e := range b.Entries {
		if !live[BaselineEntry{Rule: e.Rule, File: e.File, Message: e.Message}] {
			out = append(out, e)
		}
	}
	return out
}
