package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runAA is the A/A self-check: n full passes of the same code, each workload
// in its own process exactly as the driver runs it, assigned alternately to
// set A and set B (A B A B …). Pass i uses seed i/2+1, so both sets see the
// same seeds. For every workload × end-to-end metric it prints both
// medians, their quartiles and the relative difference, and applies the
// acceptance check's two rules: a bounded pair may not differ by more than
// the metric's bound, and its spread over all passes (interquartile range ÷
// median) may not exceed the bound, setup_s excepted. A setup_s whose spread
// does exceed its bound is marked unresolved (choosing-metrics guide §6): its
// medians agreeing says nothing about a change that small. The reported,
// unbounded figures are in the table so that their noise is on record.
func runAA(n int, seconds float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	all := passMetrics()
	sets := [2]map[key][]float64{{}, {}}
	var failedOps int64
	for pass := 0; pass < n; pass++ {
		seed := int64(pass/2 + 1)
		for _, w := range workloads {
			res, err := runChild(exe, w.name, seed, seconds)
			if err != nil {
				return fmt.Errorf("pass %d, %s: %w", pass, w.name, err)
			}
			failedOps += res.Failed
			for _, m := range all {
				k := key{w.name, m.name}
				sets[pass%2][k] = append(sets[pass%2][k], res.Metrics[m.name])
			}
		}
		fmt.Fprintf(os.Stderr, "pass %d of %d done (set %c, seed %d)\n", pass+1, n, 'A'+pass%2, seed)
	}

	env := stampEnv()
	fmt.Printf("A/A self-check: %d passes of %g s in two interleaved sets; num_cpu=%d GOMAXPROCS=%d %s commit=%s kernel=%s\n\n",
		n, seconds, env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.Commit, env.Kernel)
	fmt.Println("| workload | metric | unit | A median [Q1, Q3] | B median [Q1, Q3] | B vs A | spread (all) | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	bad := 0
	for _, w := range workloads {
		for _, m := range all {
			a, b := sets[0][key{w.name, m.name}], sets[1][key{w.name, m.name}]
			ma, mb := median(a), median(b)
			diff := worseBy(ma, mb, m.higher)
			sp := spread(append(append([]float64(nil), a...), b...))
			verdict, bound := "ok", fmt.Sprintf("%.0f%%", 100*m.bound)
			switch {
			case m.bound == 0:
				verdict, bound = "reported", "none"
			case !withinBound(ma, mb, m.bound, m.higher) || !withinBound(mb, ma, m.bound, m.higher):
				verdict = "MEDIANS DIFFER"
				bad++
			case sp > m.bound && m.name == "setup_s":
				verdict = "unresolved"
			case sp > m.bound:
				verdict = "SPREAD"
				bad++
			}
			fmt.Printf("| %s | %s | %s | %s | %s | %+.1f%% | %.1f%% | %s | %s |\n",
				w.name, m.name, m.unit, summary(a), summary(b), 100*diff, 100*sp, bound, verdict)
		}
	}
	fmt.Printf("\nfailed operations over all passes: %d\n", failedOps)
	if bad > 0 || failedOps > 0 {
		return fmt.Errorf("A/A check failed: %d workload × metric pairs outside their bound, %d failed operations", bad, failedOps)
	}
	return nil
}

// summary formats a set's median and quartiles.
func summary(xs []float64) string {
	if len(xs) < 2 {
		return fmt.Sprintf("%.5g", median(xs))
	}
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", median(xs), q1, q3)
}

// runChild runs one workload in a child process with the contract's flags,
// waits for it, checks that its last line is the contract's result line and
// returns the pass from the detail line before it (which also carries the
// reported, unbounded figures).
func runChild(exe, workload string, seed int64, seconds float64) (*passResult, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return nil, fmt.Errorf("%d lines of output, want a detail line and a result line", len(lines))
	}
	var line contractLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	var detail struct {
		Pass passResult `json:"pass"`
	}
	if err := json.Unmarshal(lines[len(lines)-2], &detail); err != nil {
		return nil, fmt.Errorf("detail line: %w", err)
	}
	for _, m := range endToEnd {
		if line.Metrics[m.name].Value != detail.Pass.Metrics[m.name] {
			return nil, fmt.Errorf("%s: result line says %v, detail line %v", m.name, line.Metrics[m.name].Value, detail.Pass.Metrics[m.name])
		}
	}
	return &detail.Pass, nil
}
