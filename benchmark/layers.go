package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// The layer run is separate from the timed passes: isolated probes of each
// layer's public functions (probes.go), then a short re-run of a workload
// with the runtime's public observers switched on, alternating with the same
// workload untraced so the cost of the observers is itself a number.

// observedDefs are the per-layer metrics read off a workload's re-run. In
// contract mode (-workload w -trace 1) they carry these names and describe
// w; `-layers` runs every workload and prints them as name.workload. A
// metric whose observer a workload cannot switch on reads 0 there (README).
var observedDefs = []metricDef{
	{"core.em_busy_frac", "ratio", true, 0},
	{"core.idle_frac", "ratio", false, 0},
	{"core.queue_wait_p50_us", "us", false, 0},
	{"core.msgs_local_per_op", "count", false, 0},
	{"core.msgs_wire_per_op", "count", false, 0},
	{"core.flushes_per_kop", "count", false, 0},
	{"core.msgs_per_flush", "count", true, 0},
	{"core.mailbox_depth_p99", "count", false, 0},
	{"elastic.shed_ratio", "ratio", false, 0},
	{"trace.overhead_frac", "ratio", false, 0},
	{"harness.cpu_us_per_op", "us", false, 0},
	// the workload's raw end-to-end figures during the untraced windows of
	// the re-run (the timed pass prints them too; here the driver sees them)
	{"e2e.ops_per_s", "1/s", true, 0},
	{"e2e.op_p50_us", "us", false, 0},
	{"e2e.op_p99_us", "us", false, 0},
}

// budgetDefs are the remainders of the two budgets a contract-mode layer
// run can compute: the workload-independent remote invoke, and the op of
// the workload it ran (`-layers` prints the latter under the budget's own
// name: kv_get, stencil_step, ...).
var budgetDefs = []metricDef{
	{"budget.remote_invoke.unattributed_us", "us", false, 0},
	{"budget.op.unattributed_us", "us", false, 0},
}

// perLayer returns every per-layer metric of the contract, in print order.
func perLayer() []metricDef {
	var out []metricDef
	for _, p := range probes {
		out = append(out, p.metricDef)
	}
	out = append(out, observedDefs...)
	return append(out, budgetDefs...)
}

// observedRun is a workload's short re-run: windows without and with the
// observers, and what the observers recorded.
type observedRun struct {
	plain, traced []window
	obs           []observation // one per observed boot, counters as deltas
	attempted     int64
	failed        int64
}

// observeRounds is how many times the re-run alternates plain and observed
// systems; two of them at once would disturb each other (every booted
// runtime keeps a 100 µs flush ticker running).
const observeRounds = 3

func observeWorkload(w *workloadDef, seed int64, total time.Duration) (*observedRun, error) {
	run := &observedRun{}
	slice := total / (2 * observeRounds)
	for r := 0; r < observeRounds; r++ {
		for _, observe := range []bool{false, true} {
			runtime.GC() // as in a timed pass
			sys, err := w.boot(bootOpts{seed: seed, observe: observe})
			if err != nil {
				return nil, fmt.Errorf("%s: boot: %w", w.name, err)
			}
			var wins []window
			var ob0 observation
			// the first window is warm-up; at least one is measured
			for start := time.Now(); len(wins) < 2 || time.Since(start) < slice; {
				win, err := sys.window(w.winDur)
				if err != nil {
					_, _ = sys.close()
					return nil, fmt.Errorf("%s: %w", w.name, err)
				}
				run.attempted += win.ops
				run.failed += win.failed
				if len(wins) == 0 {
					ob0 = sys.observed()
				}
				wins = append(wins, win)
			}
			ob := sys.observed()
			ob.flushes -= ob0.flushes
			ob.flushedMsgs -= ob0.flushedMsgs
			ob.shed -= ob0.shed
			f, err := sys.close()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			run.failed += f
			run.attempted += f
			if observe {
				run.traced = append(run.traced, wins[1:]...)
				run.obs = append(run.obs, ob)
			} else {
				run.plain = append(run.plain, wins[1:]...)
			}
		}
	}
	return run, nil
}

func rates(ws []window) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = w.rate()
	}
	return out
}

// opsPerS and p50us are the workload's own end-to-end figures during the
// re-run (untraced windows), which the op budgets take as their whole.
func (r *observedRun) opsPerS() float64 { return median(rates(r.plain)) }

// latencyUS returns the p-quantile of request latency per untraced window,
// median over windows; where no caller waits, the p-quantile over the
// windows' time per op.
func (r *observedRun) latencyUS(p float64) float64 {
	var perWin, usPerOp []float64
	for _, w := range r.plain {
		usPerOp = append(usPerOp, w.usPerOp())
		if w.lat != nil {
			perWin = append(perWin, quantile(w.lat, p))
		}
	}
	if perWin == nil {
		return quantile(usPerOp, p)
	}
	return median(perWin)
}

// metrics turns the re-run into the observed per-layer metrics.
func (r *observedRun) metrics() map[string]float64 {
	m := map[string]float64{}
	med := func(f func(observation) float64) float64 {
		var xs []float64
		for _, o := range r.obs {
			xs = append(xs, f(o))
		}
		return median(xs)
	}
	m["core.em_busy_frac"] = med(func(o observation) float64 { return o.busyFrac })
	m["core.idle_frac"] = med(func(o observation) float64 { return o.idleFrac })
	m["core.queue_wait_p50_us"] = med(func(o observation) float64 { return o.queueWaitP50us })
	m["core.mailbox_depth_p99"] = med(func(o observation) float64 { return o.mailboxDepthP99 })

	// Exact counts come from the first measured untraced window alone: its
	// inputs are fixed by the seed, whereas how many windows fit in the
	// time slice is not.
	first := r.plain[0]
	m["core.msgs_local_per_op"] = float64(first.local) / float64(first.ops)
	m["core.msgs_wire_per_op"] = float64(first.wire) / float64(first.ops)

	var flushes, flushed, shed, ops int64
	for _, o := range r.obs {
		flushes += o.flushes
		flushed += o.flushedMsgs
		shed += o.shed
	}
	for _, w := range r.traced {
		ops += w.ops
	}
	m["core.flushes_per_kop"] = 1000 * float64(flushes) / float64(ops)
	if flushes > 0 {
		m["core.msgs_per_flush"] = float64(flushed) / float64(flushes)
	}
	m["elastic.shed_ratio"] = float64(shed) / float64(ops)
	m["trace.overhead_frac"] = 1 - median(rates(r.traced))/r.opsPerS()

	var cpus []float64
	for _, w := range r.plain {
		cpus = append(cpus, w.cpu.Seconds()*1e6/float64(w.ops))
	}
	m["harness.cpu_us_per_op"] = median(cpus)
	m["e2e.ops_per_s"] = r.opsPerS()
	m["e2e.op_p50_us"] = r.latencyUS(0.5)
	m["e2e.op_p99_us"] = r.latencyUS(0.99)
	return m
}

// A budget's rows are isolated layer costs; together with the unattributed
// remainder they sum to a measured whole. The remainder is flush wait,
// wake-ups, buffering and scheduling that only spans inside the program (a
// later issue) can split further; it is negative where the rows overlap in
// time (two cores working on one flood).
type budgetRow struct {
	name string
	us   float64
}

type budget struct {
	name         string
	wholeName    string
	whole        float64
	rows         []budgetRow
	unattributed float64
}

func newBudget(name, wholeName string, whole float64, rows ...budgetRow) budget {
	b := budget{name: name, wholeName: wholeName, whole: whole, rows: rows, unattributed: whole}
	for _, r := range rows {
		b.unattributed -= r.us
	}
	return b
}

func (b budget) print() {
	fmt.Printf("budget %s: whole %s = %.3f us\n", b.name, b.wholeName, b.whole)
	for _, r := range b.rows {
		fmt.Printf("    %-52s %10.3f us  %5.1f%%\n", r.name, r.us, 100*r.us/b.whole)
	}
	fmt.Printf("    %-52s %10.3f us  %5.1f%%\n", "unattributed", b.unattributed, 100*b.unattributed/b.whole)
}

func remoteInvokeBudget(pm map[string]float64) budget {
	return newBudget("remote_invoke", "core.remote_rtt_tcp_us", pm["core.remote_rtt_tcp_us"],
		budgetRow{"2 x ser.encode_small_ns", 2 * pm["ser.encode_small_ns"] / 1e3},
		budgetRow{"transport.tcp_rtt_us", pm["transport.tcp_rtt_us"]},
		budgetRow{"2 x ser.decode_small_ns", 2 * pm["ser.decode_small_ns"] / 1e3},
		budgetRow{"core.local_rtt_us", pm["core.local_rtt_us"]})
}

// opBudget is the budget of one op of workload w, from the probes pm and
// w's own re-run.
func opBudget(w *workloadDef, pm map[string]float64, r *observedRun, om map[string]float64) budget {
	perOp := 1e6 / r.opsPerS()
	switch {
	case strings.HasPrefix(w.budget, "stencil_step"):
		cells := float64(stencilGrid*stencilGrid*stencilGrid) / stencilPEs
		msgs := om["core.msgs_local_per_op"] / stencilPEs
		return newBudget(w.budget, w.name+".ops_per_s (us per step)", perOp,
			budgetRow{fmt.Sprintf("%.0f cells/PE x stencil.kernel_ns_per_cell", cells), cells * pm["stencil.kernel_ns_per_cell"] / 1e3},
			budgetRow{fmt.Sprintf("%.1f msgs/PE/step x core.local_invoke_ns", msgs), msgs * pm["core.local_invoke_ns"] / 1e3},
			budgetRow{fmt.Sprintf("%.1f msgs/PE/step x expr.when_eval_ns", msgs), msgs * pm["expr.when_eval_ns"] / 1e3})
	case w.budget == "kv_get":
		return newBudget(w.budget, w.name+".op_p50_us", r.latencyUS(0.5),
			budgetRow{"elastic.gate_admit_ns", pm["elastic.gate_admit_ns"] / 1e3},
			budgetRow{"ser.encode_kv_ns", pm["ser.encode_kv_ns"] / 1e3},
			budgetRow{"transport.mem_rtt_us", pm["transport.mem_rtt_us"]},
			budgetRow{"ser.decode_kv_ns", pm["ser.decode_kv_ns"] / 1e3},
			budgetRow{"core.local_rtt_us", pm["core.local_rtt_us"]})
	default: // stream_msg
		perFlush := om["core.msgs_per_flush"]
		frame := 0.0
		if perFlush > 0 {
			frame = 1e6 / pm["transport.tcp_frames_per_s_8k"] / perFlush
		}
		return newBudget(w.budget, w.name+".ops_per_s (us per message)", perOp,
			budgetRow{"ser.encode_small_ns", pm["ser.encode_small_ns"] / 1e3},
			budgetRow{fmt.Sprintf("8 KiB frame / %.1f msgs per flush", perFlush), frame},
			budgetRow{"ser.decode_small_ns", pm["ser.decode_small_ns"] / 1e3},
			budgetRow{"core.local_invoke_ns (receive side)", pm["core.local_invoke_ns"] / 1e3})
	}
}

const spansPath = "benchmark/out/spans.json"

// shortestOpUS is the shortest op the harness brackets with a time.Now pair
// (a local kv_closed request, ~10 µs); harness.timer_ns must stay below 2 %
// of it.
const shortestOpUS = 10

// layerRun is one layer run: the probes, then the observed re-run and the
// op budget of each workload asked for.
type layerRun struct {
	spans     *spanLog
	probes    map[string]float64
	remote    budget
	workloads []observedWorkload
	attempted int64
	failed    int64
}

type observedWorkload struct {
	w       *workloadDef
	windows int
	metrics map[string]float64
	budget  budget
}

func runLayerRun(ws []*workloadDef, seed int64, spin, probeDur time.Duration, minBatches int, observeDur time.Duration) (*layerRun, error) {
	spinCores(spin)
	lr := &layerRun{spans: newSpanLog()}
	root := lr.spans.begin("layers", 0, 0)
	var err error
	if lr.probes, err = runProbes(probeDur, minBatches, lr.spans, root); err != nil {
		return nil, err
	}
	lr.remote = remoteInvokeBudget(lr.probes)
	for _, w := range ws {
		id := lr.spans.begin("observe:"+w.name, root, 0)
		run, err := observeWorkload(w, seed, observeDur)
		lr.spans.end(id, 0)
		if err != nil {
			return nil, err
		}
		lr.attempted += run.attempted
		lr.failed += run.failed
		om := run.metrics()
		lr.workloads = append(lr.workloads, observedWorkload{
			w: w, windows: len(run.plain) + len(run.traced), metrics: om,
			budget: opBudget(w, lr.probes, run, om),
		})
	}
	lr.spans.end(root, 0)
	return lr, nil
}

// runLayers is `-layers`: every probe at full length (~2 s), every
// workload's observed re-run, the budgets, and the span file.
func runLayers(seed int64, seconds float64) error {
	env := stampEnv()
	fmt.Printf("# charmgo benchmark layers: num_cpu=%d GOMAXPROCS=%d %s commit=%s kernel=%s seed=%d\n",
		env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.Commit, env.Kernel, seed)
	total := time.Duration(seconds * float64(time.Second))
	lr, err := runLayerRun(workloads, seed, minDur(2*time.Second, total/10), total/10, 5, total/3)
	if err != nil {
		return err
	}
	all := map[string]float64{}
	show := func(name, unit string, v float64) {
		all[name] = v
		fmt.Printf("%-44s %14.6g %s\n", name, v, unit)
	}
	for _, p := range probes {
		show(p.name, p.unit, lr.probes[p.name])
	}
	budgets := []budget{lr.remote}
	for _, ow := range lr.workloads {
		for _, d := range observedDefs {
			show(d.name+"."+ow.w.name, d.unit, ow.metrics[d.name])
		}
		budgets = append(budgets, ow.budget)
	}
	for _, b := range budgets {
		b.print()
		show("budget."+b.name+".unattributed_us", "us", b.unattributed)
	}
	if err := lr.spans.write(spansPath); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", spansPath)
	if err := printJSON(struct {
		Env     envStamp           `json:"env"`
		Seed    int64              `json:"seed"`
		Metrics map[string]float64 `json:"per_layer"`
	}{env, seed, all}); err != nil {
		return err
	}
	if lr.failed > 0 {
		return fmt.Errorf("%d operations failed during the observed re-runs", lr.failed)
	}
	if ns, lim := lr.probes["harness.timer_ns"], 0.02*1e3*shortestOpUS; ns > lim {
		return fmt.Errorf("harness.timer_ns %.0f exceeds 2%% of the shortest bracketed op (%.0f ns)", ns, lim)
	}
	return nil
}

// runContractLayers is `-workload w -trace 1`: the probes (shortened to fit
// the run), w's observed re-run and the two budgets, as the contract's
// result line over every per-layer metric.
func runContractLayers(name string, seed int64, seconds float64) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	total := time.Duration(seconds * float64(time.Second))
	lr, err := runLayerRun([]*workloadDef{w}, seed, minDur(2*time.Second, total/10),
		total/2/time.Duration(len(probes)), 3, total/2)
	if err != nil {
		return err
	}
	ow := lr.workloads[0]
	values := map[string]float64{
		"budget.remote_invoke.unattributed_us": lr.remote.unattributed,
		"budget.op.unattributed_us":            ow.budget.unattributed,
	}
	for k, v := range lr.probes {
		values[k] = v
	}
	for k, v := range ow.metrics {
		values[k] = v
	}
	if err := printJSON(struct {
		Env      envStamp `json:"env"`
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Windows  int      `json:"windows"`
	}{stampEnv(), name, seed, ow.windows}); err != nil {
		return err
	}
	line := contractLine{Correct: lr.failed == 0, Attempted: lr.attempted, Failed: lr.failed, Metrics: map[string]contractValue{}}
	for _, d := range perLayer() {
		line.Metrics[d.name] = contractValue{values[d.name], d.unit}
	}
	if err := printJSON(line); err != nil {
		return err
	}
	if lr.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", name, lr.failed, lr.attempted)
	}
	return nil
}
