// Leanmd runs the paper's LeanMD molecular-dynamics mini-app (section V-C):
// a 3D array of cells and a sparse 6D array of pairwise computes evaluate
// Lennard-Jones forces, with periodic atom migration between cells. With no
// flags it checks conservation laws against the sequential reference:
//
//	go run ./examples/leanmd
//
// Any flag makes it the command-line driver of one configuration:
//
//	go run ./examples/leanmd -cells 3 -percell 10 -steps 50 -pes 4
//	go run ./examples/leanmd -dispatch dynamic -trace
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"charmgo"
	"charmgo/internal/leanmd"
)

func main() {
	cells := flag.Int("cells", 3, "cells per dimension (>= 3)")
	perCell := flag.Int("percell", 10, "particles per cell")
	steps := flag.Int("steps", 20, "MD timesteps")
	dt := flag.Float64("dt", 5e-4, "timestep")
	pes := flag.Int("pes", 4, "PEs")
	migrate := flag.Int("migrate", 4, "atom exchange period in steps (0 = off)")
	dispatch := flag.String("dispatch", "static", "dispatch mode: static (Charm++ model) or dynamic (CharmPy model)")
	verify := flag.Bool("verify", true, "compare against the sequential reference")
	traceRun := flag.Bool("trace", false, "print a Projections-style trace summary")
	traceOut := flag.String("traceout", "", "write a Chrome trace-event timeline to this file (implies -trace)")
	flag.Parse()

	if flag.NFlag() == 0 {
		runTour()
		return
	}
	p := leanmd.DefaultParams()
	p.CX, p.CY, p.CZ = *cells, *cells, *cells
	p.PerCell = *perCell
	p.Steps = *steps
	p.DT = *dt
	p.MigrateEvery = *migrate

	cfg := charmgo.Config{PEs: *pes}
	if *traceRun || *traceOut != "" {
		cfg.Trace = charmgo.NewTracer(*pes)
	}
	switch *dispatch {
	case "static":
	case "dynamic":
		cfg.Dispatch = charmgo.DynamicDispatch
	default:
		fmt.Fprintf(os.Stderr, "unknown dispatch mode %q\n", *dispatch)
		os.Exit(2)
	}

	res, err := leanmd.RunCharm(p, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("LeanMD (%s dispatch): %d cells + %d computes on %d PEs, %d particles\n",
		*dispatch, res.Cells, res.Computes, res.PEs, res.Summary.Particles)
	fmt.Printf("time per step: %.3f ms (wall %.3f s)\n", res.TimePerStepMS, res.WallSeconds)
	fmt.Printf("kinetic energy: %.6f   momentum: (%.2e, %.2e, %.2e)\n",
		res.Summary.KE, res.Summary.Px, res.Summary.Py, res.Summary.Pz)

	if tr := cfg.Trace; tr != nil {
		fmt.Println("\ntrace summary:")
		tr.Summarize().Fprint(os.Stdout)
		if *traceOut != "" {
			writeTimeline(*traceOut, tr.Report(0))
		}
	}

	if *verify {
		ref, err := leanmd.RunSequential(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		rel := math.Abs(res.Summary.KE-ref.KE) / math.Max(ref.KE, 1e-12)
		if res.Summary.Particles == ref.Particles && rel < 1e-5 {
			fmt.Printf("verified against sequential reference (KE rel. diff %.2e)\n", rel)
		} else {
			fmt.Printf("VERIFICATION FAILED: particles %d vs %d, KE %.6f vs %.6f\n",
				res.Summary.Particles, ref.Particles, res.Summary.KE, ref.KE)
			os.Exit(1)
		}
	}
}

// runTour is the no-flag run: the default problem with frequent atom
// migration, its conservation laws checked against the sequential
// reference.
func runTour() {
	p := leanmd.DefaultParams()
	p.Steps = 30
	p.MigrateEvery = 5

	fmt.Printf("LeanMD: %d cells, %d particles, %d steps\n",
		p.NumCells(), p.NumCells()*p.PerCell, p.Steps)

	res, err := leanmd.RunCharm(p, charmgo.Config{PEs: 4})
	if err != nil {
		log.Fatal(err)
	}
	ref, err := leanmd.RunSequential(p)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("chares: %d cells + %d computes = %d (fine-grained decomposition)\n",
		res.Cells, res.Computes, res.Cells+res.Computes)
	fmt.Printf("time per step: %.2f ms\n", res.TimePerStepMS)
	fmt.Printf("particles: %d (reference %d)\n", res.Summary.Particles, ref.Particles)
	fmt.Printf("kinetic energy: %.6f (reference %.6f, rel. diff %.2e)\n",
		res.Summary.KE, ref.KE, math.Abs(res.Summary.KE-ref.KE)/ref.KE)
	fmt.Printf("total momentum: (%.2e, %.2e, %.2e) — conserved at ~0\n",
		res.Summary.Px, res.Summary.Py, res.Summary.Pz)
}

// writeTimeline writes rep's events as a Chrome trace-event timeline.
func writeTimeline(path string, rep charmgo.TraceReport) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	werr := charmgo.WriteChromeTrace(f, rep)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintln(os.Stderr, werr)
		os.Exit(1)
	}
	fmt.Printf("timeline written to %s (open in Perfetto or chrome://tracing)\n", path)
}
