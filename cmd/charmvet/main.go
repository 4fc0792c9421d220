// Command charmvet reports violations of CharmGo's programming-model
// invariants in chare code that the Go compiler, go vet and the race
// detector cannot see: entry methods are invoked by reflection, arguments
// cross nodes and chares migrate by serialization, and every chare shares
// its PE's scheduler, so a signature the dispatcher cannot call, a struct
// gob silently truncates, a blocking call on the PE scheduler, or
// non-migratable chare state all compile cleanly and fail at runtime.
//
// Usage:
//
//	charmvet [-checks list] [-list] [-json] [packages]
//
// Package patterns follow the go tool: ./... for the whole module, a
// directory path for one package. With no arguments, ./... is assumed.
//
// -json emits a machine-readable report (schema: internal/analysis.Report,
// held by its TestCharmvetJSONReport) instead of the line-oriented text
// form. Each finding carries the rule's stable ID (CV001..); IDs never
// change even if a rule is renamed. A deliberate violation is silenced on
// its line with `//charmvet:ignore <check>`.
//
// Exit status is 1 when diagnostics were reported, 2 on load or usage
// errors.
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
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: charmvet [-checks entrysig,gobsafe,...] [-list] [-json] [packages]\n\nChecks:\n")
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

	if *jsonOut {
		rep := analysis.Report{Version: analysis.ReportVersion, Findings: findings}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&rep); err != nil {
			fmt.Fprintf(os.Stderr, "charmvet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: [%s %s] %s\n", f.File, f.Line, f.Col, f.Rule, f.Check, f.Message)
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
