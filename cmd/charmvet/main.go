// Command charmvet reports violations of CharmGo's programming-model
// invariants that the Go compiler cannot see: entry methods are invoked by
// reflection, messages travel through pooled wire buffers, and chares
// migrate by serialization, so a signature the dispatcher cannot call, a
// struct gob silently truncates, a blocking call on the PE scheduler, a
// buffer reused after its ownership moved, a retained alias of a zero-copy
// payload, non-migratable chare state, or a goroutine racing entry methods
// all compile cleanly and fail at runtime.
//
// Usage:
//
//	charmvet [-checks list] [-list] [-json] [-baseline file] [-write-baseline] [packages]
//
// Package patterns follow the go tool: ./... for the whole module, a
// directory path for one package. With no arguments, ./... is assumed.
//
// -json emits a machine-readable report (schema: internal/analysis.Report,
// held by its TestCharmvetJSONReport) instead of the line-oriented text
// form. Each finding carries the rule's stable ID (CV001..); IDs never
// change even if a rule is renamed. -baseline subtracts the committed suppression file
// before deciding the exit status, so CI enforces "no new findings";
// -write-baseline regenerates that file from the current findings,
// preserving justifications for entries that are still live.
//
// Exit status is 1 when (non-baselined) diagnostics were reported, 2 on
// load or usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"charmgo/internal/analysis"
)

func main() {
	checks := flag.String("checks", "", "comma-separated checks to run (default: all)")
	list := flag.Bool("list", false, "list available checks and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON (schema: internal/analysis.Report)")
	baselinePath := flag.String("baseline", "", "baseline file of accepted findings to subtract")
	writeBaseline := flag.Bool("write-baseline", false, "regenerate the -baseline file from current findings and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: charmvet [-checks entrysig,gobsafe,...] [-list] [-json] [-baseline file] [-write-baseline] [packages]\n\nChecks:\n")
		for _, a := range analysis.All {
			fmt.Fprintf(os.Stderr, "  %s %-11s %s\n", a.ID, a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All {
			fmt.Printf("%s %-11s %s\n", a.ID, a.Name, a.Doc)
		}
		return
	}
	if *writeBaseline && *baselinePath == "" {
		fmt.Fprintf(os.Stderr, "charmvet: -write-baseline requires -baseline\n")
		os.Exit(2)
	}

	analyzers := analysis.All
	if *checks != "" {
		analyzers = nil
		for _, name := range strings.Split(*checks, ",") {
			name = strings.TrimSpace(name)
			a := analysis.ByName(name)
			if a == nil {
				a = analysis.ByID(name)
			}
			if a == nil {
				fmt.Fprintf(os.Stderr, "charmvet: unknown check %q (use -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "charmvet: %v\n", err)
		os.Exit(2)
	}
	mod, err := analysis.LoadModule(wd)
	if err != nil {
		fmt.Fprintf(os.Stderr, "charmvet: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := mod.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "charmvet: %v\n", err)
		os.Exit(2)
	}

	diags := analysis.Run(analyzers, pkgs, mod.Fset)
	findings := make([]analysis.Finding, 0, len(diags))
	for _, d := range diags {
		findings = append(findings, analysis.NewFinding(d, mod.Root))
	}

	if *writeBaseline {
		prev, err := analysis.ReadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "charmvet: %v\n", err)
			os.Exit(2)
		}
		if err := analysis.WriteBaseline(*baselinePath, findings, prev); err != nil {
			fmt.Fprintf(os.Stderr, "charmvet: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "charmvet: wrote %s (%d entries)\n", *baselinePath, len(findings))
		return
	}

	fresh := findings
	if *baselinePath != "" {
		base, err := analysis.ReadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "charmvet: %v\n", err)
			os.Exit(2)
		}
		fresh, _ = base.Filter(findings)
		for _, e := range base.Stale(findings) {
			fmt.Fprintf(os.Stderr, "charmvet: stale baseline entry (finding no longer occurs): %s %s: %s\n", e.Rule, e.File, e.Message)
		}
	}

	if *jsonOut {
		rep := analysis.Report{Version: analysis.ReportVersion, Findings: fresh}
		if rep.Findings == nil {
			rep.Findings = []analysis.Finding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&rep); err != nil {
			fmt.Fprintf(os.Stderr, "charmvet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range fresh {
			fmt.Printf("%s:%d:%d: [%s %s] %s\n", f.File, f.Line, f.Col, f.Rule, f.Check, f.Message)
		}
	}
	if len(fresh) > 0 {
		os.Exit(1)
	}
}
