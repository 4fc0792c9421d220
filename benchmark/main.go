// Command benchmark is the repository's benchmark: four long steady-state
// workloads, seven end-to-end figures (three of them bounded), and an
// outside-in per-layer budget. README.md in this directory explains the
// choices; BENCHMARK.json at the repository root is its contract.
//
//	go run ./benchmark                      # one full pass, all workloads
//	go run ./benchmark -workload kv_closed -seed 3 -seconds 24 -trace 0
//	go run ./benchmark -layers              # per-layer probes, budgets, out/spans.json
//	go run ./benchmark -aa 6                # A/A self-check in two interleaved sets
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 24

func main() {
	workload := flag.String("workload", "", "run one workload and print the contract's result line (default: all, as a report)")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Float64("seconds", runSeconds, "how long a run measures")
	traced := flag.Int("trace", 0, "1: print the per-layer metrics of -workload instead of the end-to-end ones")
	layers := flag.Bool("layers", false, "run the layer probes and the observed re-run of every workload, print budgets, write benchmark/out/spans.json")
	aa := flag.Int("aa", 0, "run N full passes as two interleaved sets and compare them (A/A self-check)")
	flag.Parse()

	// The benchmark is defined at two scheduler threads, whatever the host
	// has; an explicit GOMAXPROCS in the environment wins (and a value
	// below 2 marks every pass invalid).
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(2)
	}

	var err error
	switch {
	case *aa > 0:
		err = runAA(*aa, *seconds)
	case *layers:
		err = runLayers(*seed, *seconds)
	case *workload != "" && *traced != 0:
		err = runContractLayers(*workload, *seed, *seconds)
	case *workload != "":
		err = runContract(*workload, *seed, *seconds)
	default:
		err = runReport(*seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// envStamp says where a number was measured.
type envStamp struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Kernel     string `json:"kernel"`
}

func stampEnv() envStamp {
	e := envStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Kernel:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	if e.Commit == "unknown" {
		e.Commit = gitHead()
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b.WriteByte(byte(c))
		}
		e.Kernel = b.String()
	}
	return e
}

// gitHead reads the checked-out commit from .git by hand (`go run` does not
// stamp VCS information); "unknown" outside a git checkout.
func gitHead() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	if b, err := os.ReadFile(".git/" + strings.TrimPrefix(ref, "ref: ")); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "unknown"
}

// contractLine is the last line of standard output in contract mode.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// runContract is `--workload w --seed n --seconds s --trace 0`: one timed
// pass, an env-stamped detail line, then the contract's result line.
func runContract(name string, seed int64, seconds float64) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, err := runPass(w, seed, defaultPassCfg(seconds))
	if err != nil {
		return err
	}
	if err := printJSON(struct {
		Env  envStamp    `json:"env"`
		Pass *passResult `json:"pass"`
	}{stampEnv(), res}); err != nil {
		return err
	}
	if len(res.Invalid) > 0 {
		return fmt.Errorf("%s: pass invalid: %s", name, strings.Join(res.Invalid, "; "))
	}
	line := contractLine{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]contractValue{}}
	for _, m := range endToEnd {
		line.Metrics[m.name] = contractValue{res.Metrics[m.name], m.unit}
	}
	if err := printJSON(line); err != nil {
		return err
	}
	if !res.correct() {
		return fmt.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
	}
	return nil
}

// runReport is the plain `go run ./benchmark`: one pass of every workload,
// printed as a table and as one env-stamped JSON document.
func runReport(seed int64, seconds float64) error {
	env := stampEnv()
	fmt.Printf("# charmgo benchmark: num_cpu=%d GOMAXPROCS=%d %s commit=%s kernel=%s seed=%d seconds=%g\n",
		env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.Commit, env.Kernel, seed, seconds)
	var passes []*passResult
	bad := 0
	for _, w := range workloads {
		res, err := runPass(w, seed, defaultPassCfg(seconds))
		if err != nil {
			return err
		}
		passes = append(passes, res)
		printPass(res)
		if !res.correct() {
			bad++
		}
	}
	if err := printJSON(struct {
		Env    envStamp      `json:"env"`
		Passes []*passResult `json:"passes"`
	}{env, passes}); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d workload(s) failed operations or ran an invalid pass", bad)
	}
	return nil
}

func printPass(r *passResult) {
	fmt.Printf("%-15s windows=%d latency_samples=%d boots=%d attempted=%d failed=%d fail_ratio=%g\n",
		r.Workload, r.Windows, r.Samples, r.Boots, r.Attempted, r.Failed, r.FailRatio)
	for _, m := range endToEnd {
		fmt.Printf("    %-16s %14.6g %-5s   bound %.0f%%\n", m.name, r.Metrics[m.name], m.unit, 100*m.bound)
	}
	for _, m := range reported {
		note := ""
		if m.name == "op_p99_us" && r.TailPct != 0.99 {
			note = fmt.Sprintf(" (p%.0f over windows: no caller waits for a reply)", r.TailPct*100)
		}
		fmt.Printf("    %-16s %14.6g %-5s   reported, no bound%s\n", m.name, r.Metrics[m.name], m.unit, note)
	}
	for _, why := range r.Invalid {
		fmt.Printf("    INVALID: %s\n", why)
	}
}
