// Stencil3d runs the paper's stencil3d mini-app (section V-A). With no
// flags it runs every implementation — charm with static dispatch (the
// Charm++ model), charm with dynamic dispatch (the CharmPy model), charm
// over channels, and the mini-MPI baseline — and verifies them against the
// sequential reference:
//
//	go run ./examples/stencil3d
//
// Any flag makes it a single run of one implementation, mirroring the
// benchmark binary of the paper's repository:
//
//	go run ./examples/stencil3d -grid 64 -blocks 2,2,2 -iters 100 -pes 4
//	go run ./examples/stencil3d -impl mpi
//	go run ./examples/stencil3d -trace -traceout /tmp/stencil.json
//
// With -imbalance and -lb it is the paper's imbalanced stencil3d (section
// V-B): blocks carry synthetic load factors, and it prints the per-PE work
// distribution with and without the load balancer:
//
//	go run ./examples/stencil3d -imbalance -lb greedy -grid 32 -blocks 2,4,2 -iters 90
//
// The binary is also charmrun-ready: launched by cmd/charmrun it runs the
// charm implementation once across all nodes, which makes it the standard
// subject for tracing and profiling:
//
//	go build -o /tmp/stencil3d ./examples/stencil3d
//	go run ./cmd/charmrun -np 2 -pes 2 -trace /tmp/stencil.json /tmp/stencil3d
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"charmgo"
	"charmgo/internal/lb"
	"charmgo/internal/stencil"
)

func register(rt *charmgo.Runtime) { stencil.Register(rt) }

func main() {
	grid := flag.Int("grid", 48, "global grid edge (grid^3 cells)")
	blocks := flag.String("blocks", "2,2,2", "block counts per dimension bx,by,bz")
	iters := flag.Int("iters", 100, "Jacobi iterations")
	pes := flag.Int("pes", 4, "PEs (charm implementations)")
	impl := flag.String("impl", "charm", "implementation: charm, charm-dynamic, mpi")
	imbalance := flag.Bool("imbalance", false, "enable the paper's synthetic load imbalance")
	lbName := flag.String("lb", "", "load balancer: greedy, refine, rotate, rand (charm only)")
	lbPeriod := flag.Int("lbperiod", 30, "AtSync period in iterations")
	serialize := flag.Bool("serialize", false, "serialize all cross-PE messages (process model)")
	verify := flag.Bool("verify", true, "check the checksum against the sequential reference")
	traceRun := flag.Bool("trace", false, "print a Projections-style trace summary (charm only)")
	traceOut := flag.String("traceout", "", "write a Chrome trace-event timeline to this file (implies -trace)")
	flag.Parse()

	tour := stencil.Params{
		GridX: 48, GridY: 48, GridZ: 48,
		BX: 2, BY: 2, BZ: 2,
		Iters: 50,
	}
	if os.Getenv("CHARMGO_ADDRS") != "" {
		runMultiNode(tour)
		return
	}
	if flag.NFlag() == 0 {
		runTour(tour)
		return
	}

	bx, by, bz, err := parseTriple(*blocks)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	p := stencil.Params{
		GridX: *grid, GridY: *grid, GridZ: *grid,
		BX: bx, BY: by, BZ: bz,
		Iters:     *iters,
		Imbalance: *imbalance,
	}
	var strategy charmgo.LBStrategy
	switch *lbName {
	case "":
	case "greedy":
		strategy = lb.Greedy{}
	case "refine":
		strategy = lb.Refine{}
	case "rotate":
		strategy = lb.Rotate{}
	case "rand":
		strategy = lb.Random{Seed: 1}
	default:
		fmt.Fprintf(os.Stderr, "unknown load balancer %q\n", *lbName)
		os.Exit(2)
	}

	cfg := charmgo.Config{PEs: *pes, ForceSerialize: *serialize}
	switch *impl {
	case "charm", "mpi":
	case "charm-dynamic":
		cfg.Dispatch = charmgo.DynamicDispatch
	default:
		fmt.Fprintf(os.Stderr, "unknown implementation %q\n", *impl)
		os.Exit(2)
	}
	var noLB stencil.Result
	if strategy != nil && *imbalance && *impl != "mpi" {
		// The baseline the load balancer is judged against.
		if noLB, err = stencil.RunCharm(p, cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if strategy != nil {
		p.LBPeriod = *lbPeriod
		cfg.LB = strategy
	}
	if *traceRun || *traceOut != "" {
		cfg.Trace = charmgo.NewTracer(*pes)
	}
	var res stencil.Result
	if *impl == "mpi" {
		res, err = stencil.RunMPI(p)
	} else {
		res, err = stencil.RunCharm(p, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s: %d blocks on %d PEs, %d iterations\n", res.Impl, res.Blocks, res.PEs, p.Iters)
	fmt.Printf("time per step: %.3f ms  (wall %.3f s)\n", res.TimePerStepMS, res.WallSeconds)
	if noLB.PEWork != nil {
		printBalance(noLB, res, *lbName)
	} else if *imbalance {
		fmt.Printf("PE balance (max/avg work, final window): %.2f\n", res.MaxOverAvg)
	}
	if tr := cfg.Trace; tr != nil && *impl != "mpi" {
		fmt.Println("\ntrace summary:")
		tr.Summarize().Fprint(os.Stdout)
		if *traceOut != "" {
			writeTimeline(*traceOut, tr.Report(0))
		}
	}
	if *verify {
		want, err := stencil.RunSequential(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		diff := res.Checksum - want
		if diff < 1e-6 && diff > -1e-6 {
			fmt.Printf("checksum OK (%.6f)\n", res.Checksum)
		} else {
			fmt.Printf("CHECKSUM MISMATCH: got %.6f want %.6f\n", res.Checksum, want)
			os.Exit(1)
		}
	}
}

// runTour is the no-flag run: every implementation on one problem, each
// checked against the sequential reference.
func runTour(p stencil.Params) {
	want, err := stencil.RunSequential(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grid %dx%dx%d, %d blocks, %d iterations (sequential checksum %.6f)\n",
		p.GridX, p.GridY, p.GridZ, p.NumBlocks(), p.Iters, want)

	static, err := stencil.RunCharm(p, charmgo.Config{PEs: 4})
	if err != nil {
		log.Fatal(err)
	}
	dynamic, err := stencil.RunCharm(p, charmgo.Config{PEs: 4, Dispatch: charmgo.DynamicDispatch})
	if err != nil {
		log.Fatal(err)
	}
	chans, err := stencil.RunCharmChannels(p, charmgo.Config{PEs: 4})
	if err != nil {
		log.Fatal(err)
	}
	mpiRes, err := stencil.RunMPI(p)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range []stencil.Result{static, dynamic, chans, mpiRes} {
		status := "OK"
		if diff := r.Checksum - want; diff > 1e-6 || diff < -1e-6 {
			status = fmt.Sprintf("MISMATCH (%g)", diff)
		}
		fmt.Printf("%-10s  %6.2f ms/step   checksum %s\n", r.Impl+":", r.TimePerStepMS, status)
	}
	fmt.Printf("dynamic/static time ratio: %.2fx (models the paper's CharmPy/Charm++ gap)\n",
		dynamic.TimePerStepMS/static.TimePerStepMS)
}

// printBalance prints each PE's share of the compute work in the final
// load-balancing window, without and with the load balancer.
func printBalance(noLB, withLB stencil.Result, lbName string) {
	share := func(work []float64, pe int) string {
		var total float64
		for _, w := range work {
			total += w
		}
		if total == 0 {
			return "0.0%"
		}
		return fmt.Sprintf("%.1f%%", work[pe]/total*100)
	}
	fmt.Println("per-PE share of compute work in the final load-balancing window:")
	fmt.Printf("%-8s %-10s %-10s\n", "PE", "no LB", lbName)
	for pe := range noLB.PEWork {
		fmt.Printf("%-8d %-10s %-10s\n", pe, share(noLB.PEWork, pe), share(withLB.PEWork, pe))
	}
	fmt.Printf("max/avg PE load:  no LB %.2f   %s %.2f (1.0 = perfect balance)\n",
		noLB.MaxOverAvg, lbName, withLB.MaxOverAvg)
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

// runMultiNode is the charmrun path: one distributed charm run, verified on
// node 0 against the sequential reference.
func runMultiNode(p stencil.Params) {
	var res stencil.Result
	err := charmgo.RunFromEnv(charmgo.Config{}, register, stencil.Entry(p, &res))
	if err != nil {
		log.Fatal(err)
	}
	if os.Getenv("CHARMGO_NODE") != "0" {
		return // only node 0 ran the entry point and has a result
	}
	fmt.Printf("stencil3d: %d blocks on %d PEs, %d iterations: %.2f ms/step\n",
		res.Blocks, res.PEs, p.Iters, res.TimePerStepMS)
	want, err := stencil.RunSequential(p)
	if err != nil {
		log.Fatal(err)
	}
	if diff := res.Checksum - want; diff > 1e-6 || diff < -1e-6 {
		fmt.Printf("CHECKSUM MISMATCH: got %.6f want %.6f\n", res.Checksum, want)
		os.Exit(1)
	}
	fmt.Printf("checksum OK (%.6f)\n", res.Checksum)
}

func parseTriple(s string) (int, int, int, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("expected bx,by,bz, got %q", s)
	}
	var v [3]int
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return 0, 0, 0, fmt.Errorf("bad block count %q", p)
		}
		v[i] = n
	}
	return v[0], v[1], v[2], nil
}
