// Experiments regenerates the paper's evaluation figures (section V).
//
//	go run ./cmd/experiments              # all four figures, default calibration
//	go run ./cmd/experiments -fig 3       # one figure
//	go run ./cmd/experiments -calibrate   # measure this host's constants first
//	go run ./cmd/experiments -real        # also run the real runtime at host scale
//
// Figures 1-4 are produced by the calibrated cluster simulator
// (internal/simcluster); -real additionally executes the actual runtime on
// this machine's PEs as a small-scale cross-check.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"

	"charmgo/internal/bench"
	"charmgo/internal/core"
	"charmgo/internal/lb"
	"charmgo/internal/metrics"
	"charmgo/internal/simcluster"
	"charmgo/internal/stencil"

	lmd "charmgo/internal/leanmd"
)

func main() {
	figFlag := flag.String("fig", "all", "figure to regenerate: 1, 2, 3, 4 or all")
	calibrate := flag.Bool("calibrate", false, "measure calibration constants on this host (slower)")
	real := flag.Bool("real", false, "also run real-runtime small-scale versions")
	flag.Parse()

	cal := simcluster.Default()
	if *calibrate {
		fmt.Println("calibrating on this host...")
		cal = simcluster.Measure()
	}
	fmt.Printf("calibration: kernel %.2f ns/cell, msg overhead static %.2f us / dynamic %.2f us / mpi %.2f us\n\n",
		cal.KernelSecPerCell*1e9, cal.StaticMsgSec*1e6, cal.DynamicMsgSec*1e6, cal.MPIMsgSec*1e6)

	var figs []bench.Figure
	switch *figFlag {
	case "all":
		figs = bench.All(cal)
	case "1":
		figs = []bench.Figure{bench.Fig1(cal)}
	case "2":
		figs = []bench.Figure{bench.Fig2(cal)}
	case "3":
		figs = []bench.Figure{bench.Fig3(cal)}
	case "4":
		figs = []bench.Figure{bench.Fig4(cal)}
	case "lb":
		figs = []bench.Figure{bench.AblationLB(cal)}
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *figFlag)
		os.Exit(2)
	}
	for _, f := range figs {
		bench.Print(os.Stdout, f)
	}

	if *real {
		runReal()
	}
}

// runReal executes the actual runtime on this host as a cross-check. With
// fewer physical cores than PEs the absolute times do not scale, but the
// implementation gaps and LB balance improvements are directly measurable.
func runReal() {
	fmt.Printf("=== real runtime on this host (%d hardware threads) ===\n\n", runtime.NumCPU())

	p := stencil.Params{GridX: 48, GridY: 48, GridZ: 48, BX: 2, BY: 2, BZ: 2, Iters: 100}
	stGap := dispatchGap("stencil3d (48^3, 8 blocks, 4 PEs)", p.Iters, func(cfg core.Config) float64 {
		r, err := stencil.RunCharm(p, cfg)
		must(err)
		return r.TimePerStepMS
	})
	pm := lmd.DefaultParams()
	pm.Steps = 20
	mdGap := dispatchGap(fmt.Sprintf("LeanMD (%d cells + %d computes, 4 PEs)", pm.NumCells(), len(lmd.AllPairs(pm))),
		pm.Steps, func(cfg core.Config) float64 {
			r, err := lmd.RunCharm(pm, cfg)
			must(err)
			return r.TimePerStepMS
		})
	fmt.Printf("finer grain, larger gap: gap(LeanMD) %.2fx > gap(stencil3d) %.2fx is %v\n", mdGap, stGap, mdGap > stGap)

	mp, err := stencil.RunMPI(p)
	must(err)
	fmt.Printf("\nstencil3d (48^3, 4 ranks): %-6s %7.2f ms/step\n", mp.Impl, mp.TimePerStepMS)

	pi := stencil.Params{GridX: 32, GridY: 32, GridZ: 32, BX: 2, BY: 4, BZ: 2,
		Iters: 90, Imbalance: true}
	noLB, err := stencil.RunCharm(pi, core.Config{PEs: 4})
	must(err)
	pi.LBPeriod = 30
	withLB, err := stencil.RunCharm(pi, core.Config{PEs: 4, LB: lb.Greedy{}})
	must(err)
	fmt.Printf("\nimbalanced stencil3d, final-window PE balance (max/avg):\n")
	fmt.Printf("  %-14s %.2f\n  %-14s %.2f\n", "no LB", noLB.MaxOverAvg, "GreedyLB", withLB.MaxOverAvg)
}

// gapPairs is how many Compiled/Interpreted pairs dispatchGap runs.
const gapPairs = 7

// dispatchGap runs one app in Compiled and Interpreted mode on 4 PEs for
// gapPairs pairs, alternating which mode goes first, and prints the medians,
// the median Interpreted ÷ Compiled ratio (which it returns) and the app's
// grain: entry methods dispatched per step per PE, counted by the runtime's
// metrics in one more, untimed, run (metrics would slow the timed ones).
func dispatchGap(title string, steps int, run func(core.Config) float64) float64 {
	const pes = 4
	reg := metrics.NewRegistry()
	run(core.Config{PEs: pes, Metrics: reg})
	ems := reg.Counter("charmgo_dispatch_generated_total", "").Value() +
		reg.Counter("charmgo_dispatch_dynamic_total", "").Value()
	var comp, interp, ratio []float64
	for k := range gapPairs {
		var c, i float64
		if k%2 == 0 {
			c = run(core.Config{PEs: pes})
			i = run(core.Config{PEs: pes, Dispatch: core.DynamicDispatch})
		} else {
			i = run(core.Config{PEs: pes, Dispatch: core.DynamicDispatch})
			c = run(core.Config{PEs: pes})
		}
		comp, interp, ratio = append(comp, c), append(interp, i), append(ratio, i/c)
	}
	fmt.Printf("%s, %d alternating pairs, grain %.0f msgs/step/PE:\n", title, gapPairs, float64(ems)/float64(steps)/pes)
	fmt.Printf("  %-12s %7.2f ms/step (median)\n", "compiled", median(comp))
	fmt.Printf("  %-12s %7.2f ms/step (median)\n", "interpreted", median(interp))
	g := median(ratio)
	fmt.Printf("  interpreted / compiled %.2fx (median; pairs %.2f-%.2fx)\n\n", g, slices.Min(ratio), slices.Max(ratio))
	return g
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
