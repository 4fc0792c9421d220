// Charmrun launches a charmgo program across multiple OS processes on this
// host, the way the paper's applications are launched by charmrun/mpirun
// (section IV-A). The target program must start its runtime with
// charmgo.RunFromEnv; charmrun assigns each process a node id, a TCP
// address, and a PE count through the environment.
//
//	go build -o /tmp/quickstart ./examples/quickstart
//	go run ./cmd/charmrun -np 2 -pes 2 /tmp/quickstart
//
// (The bundled examples use charmgo.Run; see examples/disthello for one
// that is charmrun-ready.)
//
// For fault-tolerant programs (charmgo.RunFT, see examples/faulttolerant),
// charmrun doubles as a chaos harness:
//
//	charmrun -np 3 -kill-node 1@2s /tmp/ftapp   # SIGKILL node 1 after 2s
//	charmrun -np 3 -drop-rate 0.2 /tmp/ftapp    # drop 20% of heartbeats
//
// A node killed by -kill-node is expected to die and does not count as a
// job failure; the survivors must recover and finish on their own.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// parseKillSpec parses -kill-node's N@DUR form (e.g. "1@2s").
func parseKillSpec(s string) (node int, after time.Duration, err error) {
	at := strings.IndexByte(s, '@')
	if at < 0 {
		return 0, 0, fmt.Errorf("want N@DURATION, e.g. 1@2s")
	}
	node, err = strconv.Atoi(s[:at])
	if err != nil || node < 0 {
		return 0, 0, fmt.Errorf("bad node id %q", s[:at])
	}
	after, err = time.ParseDuration(s[at+1:])
	if err != nil || after <= 0 {
		return 0, 0, fmt.Errorf("bad duration %q", s[at+1:])
	}
	return node, after, nil
}

func main() {
	np := flag.Int("np", 2, "number of processes (nodes)")
	pes := flag.Int("pes", 1, "PEs per process")
	basePort := flag.Int("baseport", 17100, "first TCP port")
	traceOut := flag.String("trace", "", "enable tracing; node 0 writes a Chrome trace-event timeline to this file at exit")
	traceCap := flag.Int("trace-cap", 0, "per-PE trace ring-buffer capacity in events (0 = default)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /trace and /debug/pprof per node at host:(port+node), e.g. 127.0.0.1:9100")
	ccsAddr := flag.String("ccs-addr", "", "enable live introspection sampling and serve /introspect per node at host:(port+node); `charmgo top` reads node 0's endpoint")
	sampleInterval := flag.Duration("sample-interval", 0, "introspection sample period (0 = default 250ms; needs -ccs-addr)")
	treeArity := flag.Int("tree-arity", 0, "fan-out k of the spanning tree used for inter-node collectives (0 = default 4, negative = flat collectives)")
	killNode := flag.String("kill-node", "", "SIGKILL node N after a duration, as N@DUR (e.g. 1@2s); requires a charmgo.RunFT program to survive")
	dropRate := flag.Float64("drop-rate", 0, "fraction [0,1) of failure-detector frames dropped by the chaos layer (RunFT programs)")
	ftSeed := flag.Int64("ft-seed", 1, "chaos RNG seed (RunFT programs)")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: charmrun [-np N] [-pes K] [-kill-node N@DUR] [-drop-rate P] <binary> [args...]")
		os.Exit(2)
	}
	bin := flag.Arg(0)
	args := flag.Args()[1:]

	victim, killAfter := -1, time.Duration(0)
	if *killNode != "" {
		var err error
		victim, killAfter, err = parseKillSpec(*killNode)
		if err != nil {
			fmt.Fprintf(os.Stderr, "charmrun: -kill-node %q: %v\n", *killNode, err)
			os.Exit(2)
		}
		if victim >= *np {
			fmt.Fprintf(os.Stderr, "charmrun: -kill-node %d but only %d nodes\n", victim, *np)
			os.Exit(2)
		}
	}
	if *dropRate < 0 || *dropRate >= 1 {
		fmt.Fprintf(os.Stderr, "charmrun: -drop-rate %v out of range [0,1)\n", *dropRate)
		os.Exit(2)
	}

	addrs := make([]string, *np)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("127.0.0.1:%d", *basePort+i)
	}
	addrList := strings.Join(addrs, ",")

	var wg sync.WaitGroup
	fail := make(chan error, *np)
	for node := 0; node < *np; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			cmd := exec.Command(bin, args...)
			cmd.Env = append(os.Environ(),
				fmt.Sprintf("CHARMGO_ADDRS=%s", addrList),
				fmt.Sprintf("CHARMGO_NODE=%d", node),
				fmt.Sprintf("CHARMGO_PES=%d", *pes),
			)
			if *traceOut != "" {
				cmd.Env = append(cmd.Env, fmt.Sprintf("CHARMGO_TRACE=%s", *traceOut))
			}
			if *traceCap > 0 {
				cmd.Env = append(cmd.Env, fmt.Sprintf("CHARMGO_TRACE_CAP=%d", *traceCap))
			}
			if *metricsAddr != "" {
				cmd.Env = append(cmd.Env, fmt.Sprintf("CHARMGO_METRICS_ADDR=%s", *metricsAddr))
			}
			if *ccsAddr != "" {
				cmd.Env = append(cmd.Env, fmt.Sprintf("CHARMGO_CCS_ADDR=%s", *ccsAddr))
			}
			if *sampleInterval > 0 {
				cmd.Env = append(cmd.Env, fmt.Sprintf("CHARMGO_SAMPLE_INTERVAL=%s", *sampleInterval))
			}
			if *treeArity != 0 {
				cmd.Env = append(cmd.Env, fmt.Sprintf("CHARMGO_TREE_ARITY=%d", *treeArity))
			}
			if *dropRate > 0 {
				cmd.Env = append(cmd.Env,
					fmt.Sprintf("CHARMGO_FT_DROP=%v", *dropRate),
					fmt.Sprintf("CHARMGO_FT_SEED=%d", *ftSeed))
			}
			cmd.Stdout = os.Stdout
			cmd.Stderr = os.Stderr
			if node == victim {
				if err := cmd.Start(); err != nil {
					fail <- fmt.Errorf("node %d: %w", node, err)
					return
				}
				var killed atomic.Bool
				go func() {
					time.Sleep(killAfter)
					killed.Store(true) // before Kill: Wait may return first
					fmt.Fprintf(os.Stderr, "charmrun: killing node %d after %v\n", node, killAfter)
					_ = cmd.Process.Kill()
				}()
				err := cmd.Wait()
				if killed.Load() {
					return // died by our hand: expected, not a job failure
				}
				if err != nil {
					// Died early on its own — that IS a failure.
					fail <- fmt.Errorf("node %d (kill target) exited before the kill: %w", node, err)
				}
				return
			}
			if err := cmd.Run(); err != nil {
				fail <- fmt.Errorf("node %d: %w", node, err)
			}
		}(node)
	}
	wg.Wait()
	close(fail)
	if err := <-fail; err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
