package analysis

import "path/filepath"

// report.go is the machine-readable output behind `charmvet -json`. A
// Finding is one diagnostic with a stable rule ID and a module-relative
// path; a Report is the JSON document charmvet emits (its schema is held by
// TestCharmvetJSONReport).

// ReportVersion is the schema version of charmvet's -json output. Bump only
// on incompatible changes; TestCharmvetJSONReport rejects any other version.
const ReportVersion = 1

// Finding is one diagnostic in machine-readable form.
type Finding struct {
	Rule    string `json:"rule"`  // stable ID, e.g. "CV008"
	Check   string `json:"check"` // human name, e.g. "migratesafe"
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
