// Package charmgo is a Go implementation of the CharmPy parallel
// programming model (Galvez, Senthil, Kale: "CharmPy: A Python Parallel
// Programming Model", IEEE CLUSTER 2018) together with the Charm++-style
// message-driven runtime it runs on.
//
// The model is the paradigm of distributed migratable objects ("chares")
// with asynchronous remote method invocation:
//
//	type Greeter struct {
//	    charmgo.Chare
//	}
//
//	func (g *Greeter) SayHi(msg string) { fmt.Println(msg, "from PE", g.MyPE()) }
//
//	func main() {
//	    charmgo.Run(charmgo.Config{PEs: 4},
//	        func(rt *charmgo.Runtime) { rt.Register(&Greeter{}) },
//	        func(self *charmgo.Chare) {
//	            defer self.Exit()
//	            g := self.NewGroup(&Greeter{})
//	            g.Call("SayHi", "hello")          // broadcast, asynchronous
//	            f := g.At(2).CallRet("SayHi", "!") // per-element, with future
//	            f.Get()                            // suspends; PE keeps working
//	        })
//	}
//
// Features mirroring the paper: chare Groups and N-dimensional Arrays
// (dense and sparse with dynamic insertion, custom ArrayMaps), broadcasts,
// asynchronous reductions with built-in and custom reducers, futures,
// threaded entry methods with wait conditions, string "when" conditions for
// message ordering, chare migration, and measurement-based dynamic load
// balancing (AtSync protocol, strategies in internal/lb).
//
// A single Runtime hosts multiple PEs (scheduler goroutines) in one
// process; multi-process/multi-host jobs connect runtimes with the TCP
// transport (see RunFromEnv and cmd/charmrun).
package charmgo

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"charmgo/internal/core"
	"charmgo/internal/ft"
	"charmgo/internal/introspect"
	"charmgo/internal/metrics"
	"charmgo/internal/trace"
	"charmgo/internal/transport"
)

// Re-exported core types; see package core for full documentation.
type (
	// Chare is the distributed-object base class; embed it in your structs.
	Chare = core.Chare
	// Proxy performs asynchronous remote method invocation.
	Proxy = core.Proxy
	// Future is a placeholder for an asynchronously produced value.
	Future = core.Future
	// PE identifies a processing element.
	PE = core.PE
	// Reducer names a reduction function.
	Reducer = core.Reducer
	// Target names the receiver of a reduction result.
	Target = core.Target
	// Config configures a Runtime node.
	Config = core.Config
	// Runtime is one node of a job.
	Runtime = core.Runtime
	// EM is a typed entry-method handle; see Bind.
	EM = core.EM
	// DispatchMode selects static (Charm++-like) or dynamic (CharmPy-like)
	// entry method dispatch.
	DispatchMode = core.DispatchMode
	// RegOpt configures chare type registration.
	RegOpt = core.RegOpt
	// ArrayMap computes initial element placement for chare arrays.
	ArrayMap = core.ArrayMap
	// LBObject describes a migratable object to a load balancer.
	LBObject = core.LBObject
	// LBStrategy computes new object placements from measured loads.
	LBStrategy = core.LBStrategy
	// CID identifies a chare collection (used by checkpoint restart).
	CID = core.CID
	// Channel is a direct-style ordered pairwise stream between two chares,
	// usable from threaded entry methods (charm4py's Channel API).
	Channel = core.Channel
	// Tracer records Projections-style runtime events (set Config.Trace).
	Tracer = trace.Tracer
	// TraceReport is one node's gathered trace (Runtime.TraceReports).
	TraceReport = trace.Report
	// MetricsRegistry holds the runtime's live counters and gauges (set
	// Config.Metrics; expose with ServeMetrics).
	MetricsRegistry = metrics.Registry
	// IntrospectCluster is the live cluster-introspection holder behind
	// /introspect (set Config.Introspect and Config.SampleInterval; expose
	// with ServeDebug). `charmgo top` renders its JSON.
	IntrospectCluster = introspect.Cluster
)

// NewTracer creates a tracer for numPEs local PEs (default event cap).
func NewTracer(numPEs int) *Tracer { return trace.New(numPEs) }

// NewTracerWithCap creates a tracer whose per-PE ring buffers hold at most
// cap events each.
func NewTracerWithCap(numPEs, cap int) *Tracer { return trace.NewWithCap(numPEs, cap) }

// NewMetricsRegistry creates an empty metrics registry for Config.Metrics.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// NewIntrospectCluster creates an empty introspection holder for
// Config.Introspect (the runtime sizes it at Start).
func NewIntrospectCluster() *IntrospectCluster { return introspect.NewCluster() }

// ServeMetrics starts the debug HTTP endpoint (/metrics, /trace,
// /debug/pprof) for a registry; tr may be nil. Close the returned server
// when done.
func ServeMetrics(addr string, reg *MetricsRegistry, tr *Tracer) (*metrics.Server, error) {
	return metrics.Serve(addr, reg, traceSource(tr), nil)
}

// ServeDebug is ServeMetrics plus the live-introspection endpoints
// (/introspect, /introspect/trace, /introspect/lb) backed by is; tr and is
// may be nil.
func ServeDebug(addr string, reg *MetricsRegistry, tr *Tracer, is *IntrospectCluster) (*metrics.Server, error) {
	return metrics.Serve(addr, reg, traceSource(tr), introSource(is))
}

// traceSource converts a possibly-nil *Tracer into a possibly-nil interface
// (a plain conversion would produce a non-nil interface holding nil).
func traceSource(tr *Tracer) metrics.TraceSource {
	if tr == nil {
		return nil
	}
	return tr
}

// introSource is traceSource's counterpart for the introspection holder.
func introSource(is *IntrospectCluster) metrics.IntrospectSource {
	if is == nil {
		return nil
	}
	return is
}

// WriteChromeTrace renders node reports as Chrome trace-event JSON
// (loadable in Perfetto / chrome://tracing).
func WriteChromeTrace(w interface{ Write([]byte) (int, error) }, reports ...TraceReport) error {
	return trace.WriteChrome(w, reports...)
}

// AggregateTrace merges node reports into a job-wide summary (utilization,
// grain sizes, PE×PE communication matrix).
func AggregateTrace(reports []TraceReport) trace.GlobalSummary {
	return trace.Aggregate(reports)
}

// NewChannel creates this chare's endpoint of a channel to the peer element.
func NewChannel(self *Chare, peer Proxy, port ...int) *Channel {
	return core.NewChannel(self, peer, port...)
}

// Restart restores a checkpoint written by Chare.Checkpoint into a fresh
// runtime, possibly with a different PE count (shrink-expand), and runs
// entry with proxies to the restored collections. See core.Restart.
func Restart(rt *Runtime, path string, entry func(self *Chare, colls map[CID]Proxy)) error {
	return core.Restart(rt, path, entry)
}

// Re-exported constants.
const (
	// AnyPE lets the runtime choose the PE for a single chare.
	AnyPE = core.AnyPE
	// StaticDispatch is Compiled mode, the default: typed entry-method
	// handles (Bind) dispatch entry methods, modelling Charm++.
	StaticDispatch = core.StaticDispatch
	// DynamicDispatch is Interpreted mode: reflection dispatches entry
	// methods by name, modelling CharmPy.
	DynamicDispatch = core.DynamicDispatch
)

// Built-in reducers (paper section II-F).
var (
	SumReducer     = core.SumReducer
	ProductReducer = core.ProductReducer
	MaxReducer     = core.MaxReducer
	MinReducer     = core.MinReducer
	GatherReducer  = core.GatherReducer
	AndReducer     = core.AndReducer
	OrReducer      = core.OrReducer
	NopReducer     = core.NopReducer
)

// Bind declares the typed entry-method handles of chare type T, from
// package initialization; Compiled mode dispatches and encodes through them
// (see core.Bind):
//
//	func init() {
//	    charmgo.Bind[Greeter](charmgo.EM1((*Greeter).SayHi))
//	}
func Bind[T any](hs ...EM) { core.Bind[T](hs...) }

// EM0 to EM5 build the handle of an entry method with that many arguments,
// and EM0R to EM2R that of one with a result, from a method expression.
func EM0[T any](f func(*T)) EM                               { return core.EM0(f) }
func EM1[T, A any](f func(*T, A)) EM                         { return core.EM1(f) }
func EM2[T, A, B any](f func(*T, A, B)) EM                   { return core.EM2(f) }
func EM3[T, A, B, C any](f func(*T, A, B, C)) EM             { return core.EM3(f) }
func EM4[T, A, B, C, D any](f func(*T, A, B, C, D)) EM       { return core.EM4(f) }
func EM5[T, A, B, C, D, E any](f func(*T, A, B, C, D, E)) EM { return core.EM5(f) }
func EM0R[T, R any](f func(*T) R) EM                         { return core.EM0R(f) }
func EM1R[T, A, R any](f func(*T, A) R) EM                   { return core.EM1R(f) }
func EM2R[T, A, B, R any](f func(*T, A, B) R) EM             { return core.EM2R(f) }

// Registration options (see core.When, core.Threaded, core.ArgNames).
var (
	When     = core.When
	Threaded = core.Threaded
	ArgNames = core.ArgNames
)

// NewRuntime creates a node runtime.
func NewRuntime(cfg Config) *Runtime { return core.NewRuntime(cfg) }

// Run is the common single-process entry point: it creates a runtime,
// registers chare types via reg, and runs entry as the program entry point,
// blocking until the job exits.
func Run(cfg Config, reg func(*Runtime), entry func(self *Chare)) {
	rt := core.NewRuntime(cfg)
	if reg != nil {
		reg(rt)
	}
	rt.Start(entry)
}

// RunFromEnv is Run for multi-process jobs launched by cmd/charmrun: if the
// CHARMGO_ADDRS environment variable is set (a comma-separated address
// list), the process connects to its peers over TCP using CHARMGO_NODE as
// its node id and hosts CHARMGO_PES PEs; otherwise it behaves like Run.
// Node 0 executes the entry point.
//
// Observability is also wired from the environment (set by charmrun's
// -trace and -metrics-addr flags, or by hand):
//
//   - CHARMGO_TRACE=out.json enables full-lifecycle tracing; at exit node 0
//     gathers every node's trace, writes a Chrome trace-event timeline to
//     the named file, and prints a utilization summary to stderr.
//   - CHARMGO_TRACE_CAP bounds the per-PE trace ring buffers (events each).
//   - CHARMGO_METRICS_ADDR=host:port serves /metrics, /trace and
//     /debug/pprof on port+nodeID for the lifetime of the job.
//   - CHARMGO_CCS_ADDR=host:port additionally enables live introspection
//     sampling and serves /introspect, /introspect/trace and /introspect/lb
//     (on CHARMGO_METRICS_ADDR when that is also set, else on this address,
//     again shifted by nodeID). `charmgo top` reads node 0's endpoint.
//   - CHARMGO_SAMPLE_INTERVAL sets the sampling period (default 250ms).
func RunFromEnv(cfg Config, reg func(*Runtime), entry func(self *Chare)) error {
	var list []string
	nodeID := 0
	if addrs := os.Getenv("CHARMGO_ADDRS"); addrs != "" {
		list = strings.Split(addrs, ",")
		var err error
		nodeID, err = strconv.Atoi(os.Getenv("CHARMGO_NODE"))
		if err != nil || nodeID < 0 || nodeID >= len(list) {
			return fmt.Errorf("charmgo: bad CHARMGO_NODE %q for %d nodes", os.Getenv("CHARMGO_NODE"), len(list))
		}
		if pes := os.Getenv("CHARMGO_PES"); pes != "" {
			n, err := strconv.Atoi(pes)
			if err != nil || n < 1 {
				return fmt.Errorf("charmgo: bad CHARMGO_PES %q", pes)
			}
			cfg.PEs = n
		}
	}
	if cfg.PEs < 1 {
		cfg.PEs = 1 // match NewRuntime's default so the tracer is sized right
	}
	finish, err := setupObservability(&cfg, nodeID, len(list) > 1)
	if err != nil {
		return err
	}
	if list != nil {
		t, err := transport.NewTCP(nodeID, list)
		if err != nil {
			return err
		}
		defer t.Close()
		cfg.Transport = t
	}
	rt := core.NewRuntime(cfg)
	if reg != nil {
		reg(rt)
	}
	rt.Start(entry)
	if finish != nil {
		finish(rt)
	}
	return nil
}

// FTJob describes a fault-tolerant application to RunFT. Fresh is the
// initial entry point; after an automatic recovery Restore resumes the job
// with proxies to the restored collections and the last committed
// checkpoint epoch. Both run on the (possibly new) node 0's main chare and
// must call self.Exit() when the job is complete. Inside either, call
// self.FTCheckpoint() at step boundaries to commit recovery points.
type FTJob struct {
	Register func(rt *Runtime)
	Fresh    func(self *Chare)
	Restore  func(self *Chare, colls map[CID]Proxy, epoch int64)
}

// RunFT is RunFromEnv with Charm++-style double in-memory checkpointing and
// automatic failure recovery (see internal/ft and DESIGN.md §3.4): a
// heartbeat failure detector rides on the TCP frame path, FTCheckpoint
// snapshots every node's chares to a buddy node's memory, and when a node
// dies the survivors rebuild a smaller mesh, restore the last committed
// epoch from the buddy copies, and resume — without restarting the job.
//
// Beyond RunFromEnv's variables it reads:
//
//   - CHARMGO_FT_HEARTBEAT / CHARMGO_FT_SUSPICION: detector tuning
//     (Go durations; defaults 50ms / 500ms).
//   - CHARMGO_FT_DROP: fraction [0,1) of detector control frames dropped by
//     the chaos layer (charmrun -drop-rate), for soak-testing detection.
//   - CHARMGO_FT_SEED: chaos RNG seed (default 1).
//
// Each recovery round r rebuilds the TCP mesh on the surviving nodes'
// addresses with ports shifted by r*numNodes, so a crashed-but-alive
// process (or a SIGKILLed one in TIME_WAIT) can never collide with the
// survivors. Without CHARMGO_ADDRS the job runs single-node: checkpoints
// commit locally (self-buddy) and recovery is never needed.
func RunFT(cfg Config, job FTJob) error {
	addrs := os.Getenv("CHARMGO_ADDRS")
	if addrs == "" {
		cfg.FT = ft.NewManager()
		finish, err := setupObservability(&cfg, 0, false)
		if err != nil {
			return err
		}
		rt := core.NewRuntime(cfg)
		if job.Register != nil {
			job.Register(rt)
		}
		rt.Start(job.Fresh)
		if finish != nil {
			finish(rt)
		}
		return nil
	}
	list := strings.Split(addrs, ",")
	nodeID, err := strconv.Atoi(os.Getenv("CHARMGO_NODE"))
	if err != nil || nodeID < 0 || nodeID >= len(list) {
		return fmt.Errorf("charmgo: bad CHARMGO_NODE %q for %d nodes", os.Getenv("CHARMGO_NODE"), len(list))
	}
	pes := 1
	if s := os.Getenv("CHARMGO_PES"); s != "" {
		if pes, err = strconv.Atoi(s); err != nil || pes < 1 {
			return fmt.Errorf("charmgo: bad CHARMGO_PES %q", s)
		}
	}
	hb, err := ftEnvDuration("CHARMGO_FT_HEARTBEAT", 50*time.Millisecond)
	if err != nil {
		return err
	}
	susp, err := ftEnvDuration("CHARMGO_FT_SUSPICION", 500*time.Millisecond)
	if err != nil {
		return err
	}
	var drop float64
	if s := os.Getenv("CHARMGO_FT_DROP"); s != "" {
		if drop, err = strconv.ParseFloat(s, 64); err != nil || drop < 0 || drop >= 1 {
			return fmt.Errorf("charmgo: bad CHARMGO_FT_DROP %q (want [0,1))", s)
		}
	}
	seed := int64(1)
	if s := os.Getenv("CHARMGO_FT_SEED"); s != "" {
		if seed, err = strconv.ParseInt(s, 10, 64); err != nil {
			return fmt.Errorf("charmgo: bad CHARMGO_FT_SEED %q", s)
		}
	}
	rc := cfg
	rc.PEs = pes
	finish, err := setupObservability(&rc, nodeID, false) // no cross-node gather across incarnations
	if err != nil {
		return err
	}
	fc := ft.Config{
		Node:  nodeID,
		Nodes: len(list),
		PEs:   pes,
		Transport: func(round int, live []int, self int) (transport.Transport, error) {
			mesh := make([]string, len(live))
			selfIdx := -1
			for k, orig := range live {
				a, err := offsetPort(list[orig], round*len(list))
				if err != nil {
					return nil, fmt.Errorf("charmgo: bad node address %q: %v", list[orig], err)
				}
				mesh[k] = a
				if orig == self {
					selfIdx = k
				}
			}
			return transport.NewTCP(selfIdx, mesh)
		},
		Register:  job.Register,
		Fresh:     job.Fresh,
		Restore:   job.Restore,
		Heartbeat: hb,
		Suspicion: susp,
		Runtime:   rc,
	}
	if drop > 0 {
		fc.Wrap = func(round int, t transport.Transport) transport.Transport {
			c := ft.Wrap(t, seed+int64(round)*1000+int64(nodeID))
			c.SetDropRate(drop)
			return c
		}
	}
	runErr := ft.NewJob(fc).Run()
	if finish != nil {
		finish(nil)
	}
	// Cross-incarnation trace gather is not supported, but the node-local
	// timeline (heartbeat misses, node deaths, recovery spans included) is
	// still worth keeping — also as a post-mortem when recovery failed.
	if path := os.Getenv("CHARMGO_TRACE"); path != "" && rc.Trace != nil {
		out := fmt.Sprintf("%s.node%d", path, nodeID)
		if f, ferr := os.Create(out); ferr == nil {
			werr := trace.WriteChrome(f, rc.Trace.Report(nodeID))
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr == nil {
				fmt.Fprintf(os.Stderr, "charmgo: node %d timeline written to %s\n", nodeID, out)
			}
		}
	}
	return runErr
}

// ftEnvDuration parses an optional duration environment variable.
func ftEnvDuration(name string, def time.Duration) (time.Duration, error) {
	s := os.Getenv(name)
	if s == "" {
		return def, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("charmgo: bad %s %q", name, s)
	}
	return d, nil
}

// setupObservability reads CHARMGO_TRACE / CHARMGO_TRACE_CAP /
// CHARMGO_METRICS_ADDR / CHARMGO_CCS_ADDR / CHARMGO_SAMPLE_INTERVAL and
// mutates cfg accordingly. The returned function (nil when no observability
// is requested) must run after the job exits: it stops the debug server and,
// on node 0, exports the timeline.
func setupObservability(cfg *Config, nodeID int, multiNode bool) (func(*Runtime), error) {
	tracePath := os.Getenv("CHARMGO_TRACE")
	metricsAddr := os.Getenv("CHARMGO_METRICS_ADDR")
	ccsAddr := os.Getenv("CHARMGO_CCS_ADDR")
	if tracePath == "" && metricsAddr == "" && ccsAddr == "" {
		return nil, nil
	}
	var tr *trace.Tracer
	if tracePath != "" || ccsAddr != "" {
		// The CCS endpoint exports the live trace window (/introspect/trace)
		// and the comm-matrix deltas `charmgo top` shows, so -ccs-addr
		// implies a tracer even without -trace; without a trace path the
		// timeline is simply never written to disk.
		evCap := trace.DefaultEventCap
		if s := os.Getenv("CHARMGO_TRACE_CAP"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("charmgo: bad CHARMGO_TRACE_CAP %q", s)
			}
			evCap = n
		}
		tr = trace.NewWithCap(cfg.PEs, evCap)
		cfg.Trace = tr
		cfg.TraceGather = tracePath != "" && multiNode
	}
	var intro *IntrospectCluster
	if ccsAddr != "" {
		// CCS-style live introspection: turn on sampling (default 250ms) and
		// create the cluster holder the runtime fills at Start.
		cfg.SampleInterval = 250 * time.Millisecond
		if s := os.Getenv("CHARMGO_SAMPLE_INTERVAL"); s != "" {
			d, err := time.ParseDuration(s)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("charmgo: bad CHARMGO_SAMPLE_INTERVAL %q", s)
			}
			cfg.SampleInterval = d
		}
		intro = NewIntrospectCluster()
		cfg.Introspect = intro
	}
	var srv *metrics.Server
	if serveAddr := metricsAddr; serveAddr != "" || ccsAddr != "" {
		if serveAddr == "" {
			serveAddr = ccsAddr
		}
		reg := metrics.NewRegistry()
		cfg.Metrics = reg
		addr, err := offsetPort(serveAddr, nodeID)
		if err != nil {
			return nil, fmt.Errorf("charmgo: bad debug-endpoint address %q: %v", serveAddr, err)
		}
		srv, err = metrics.Serve(addr, reg, traceSource(tr), introSource(intro))
		if err != nil {
			return nil, fmt.Errorf("charmgo: metrics endpoint: %v", err)
		}
		fmt.Fprintf(os.Stderr, "charmgo: node %d metrics at http://%s/metrics\n", nodeID, srv.Addr())
		if intro != nil {
			fmt.Fprintf(os.Stderr, "charmgo: node %d introspection at http://%s/introspect\n", nodeID, srv.Addr())
		}
	}
	return func(rt *Runtime) {
		if srv != nil {
			srv.Close()
		}
		if tr == nil || tracePath == "" || nodeID != 0 || rt == nil {
			// tracePath == "": the tracer only fed the live CCS endpoints.
			// rt == nil: FT runs don't gather traces across incarnations.
			return
		}
		reps := rt.TraceReports()
		f, err := os.Create(tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "charmgo: trace export: %v\n", err)
			return
		}
		werr := trace.WriteChrome(f, reps...)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "charmgo: trace export: %v\n", werr)
			return
		}
		trace.Aggregate(reps).Fprint(os.Stderr)
		fmt.Fprintf(os.Stderr, "charmgo: timeline written to %s (open in Perfetto or chrome://tracing)\n", tracePath)
	}, nil
}

// offsetPort shifts a host:port address by nodeID so each node of a job
// serves metrics on its own port. Port 0 (ephemeral) is left alone.
func offsetPort(addr string, nodeID int) (string, error) {
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return "", err
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return "", err
	}
	if port != 0 {
		port += nodeID
	}
	return net.JoinHostPort(host, strconv.Itoa(port)), nil
}
