package simcluster

import (
	"bytes"
	"time"

	"charmgo/internal/core"
	"charmgo/internal/mpi"
	"charmgo/internal/ser"
	"charmgo/internal/stencil"
)

// Calibration holds measured per-host constants that parameterize the
// cluster simulator. Kernel costs come from the actual compute kernels;
// per-message overheads come from ping-pong microbenchmarks through the
// actual runtime in each dispatch mode. This grounds the simulated
// Charm++/CharmPy/MPI gaps in measurements rather than hand-picked numbers.
type Calibration struct {
	// KernelSecPerCell is the measured 7-point Jacobi cost per cell.
	KernelSecPerCell float64
	// PairCostSec is the measured Lennard-Jones cost per particle pair.
	PairCostSec float64
	// StaticMsgSec / DynamicMsgSec / MPIMsgSec are per-message runtime
	// overheads (send+receive combined) of, respectively, the static
	// dispatch path (Charm++ model), the dynamic reflective path (CharmPy
	// model) and the mini-MPI baseline (mpi4py model).
	StaticMsgSec  float64
	DynamicMsgSec float64
	MPIMsgSec     float64
	// PerByteCPUSec is the measured serialization/copy cost per byte.
	PerByteCPUSec float64
}

// Default returns a deterministic calibration (used by tests, so results
// don't depend on the build machine): a ~2 ns/cell kernel, ~0.1 ns/B copy
// cost, and per-message overheads recalibrated against the lock-free PE
// scheduler (DESIGN.md §3.9). The balanced cells of the overdecomposition
// sweep (EXPERIMENTS.md §manychares, a 1-CPU record) put the end-to-end
// per-message scheduler cost at ~1.8 us under the since-deleted mutex
// mailbox vs ~1.3 us lock-free, so the charm paths drop 0.5 us from their
// paper-era values (2.0/5.0 us): both static and dynamic dispatch ride the
// same mailbox, so the saving is additive, not proportional. MPIMsgSec is unchanged — mini-MPI's
// rendezvous path does not go through the core mailboxes.
func Default() Calibration {
	return Calibration{
		KernelSecPerCell: 2e-9,
		PairCostSec:      8e-9,
		StaticMsgSec:     1.5e-6,
		DynamicMsgSec:    4.5e-6,
		MPIMsgSec:        2.4e-6,
		PerByteCPUSec:    1e-10,
	}
}

// Impl selects which runtime implementation a simulated Machine models.
type Impl int

// Simulated implementations (series of the paper's figures).
const (
	ImplCharm   Impl = iota // Charm++: static dispatch
	ImplCharmPy             // CharmPy: dynamic dispatch
	ImplMPI                 // mpi4py baseline
)

// String implements fmt.Stringer.
func (im Impl) String() string {
	switch im {
	case ImplCharm:
		return "charm-static (Charm++)"
	case ImplCharmPy:
		return "charm-dynamic (CharmPy)"
	default:
		return "mini-mpi (mpi4py)"
	}
}

// MachineFor builds a Cray-like machine of the given size whose per-message
// overheads model the chosen implementation.
func (c Calibration) MachineFor(im Impl, pes int) Machine {
	m := CrayLike(pes)
	var msg float64
	switch im {
	case ImplCharm:
		msg = c.StaticMsgSec
	case ImplCharmPy:
		msg = c.DynamicMsgSec
	default:
		msg = c.MPIMsgSec
	}
	m.SendOverheadSec = msg / 2
	m.RecvOverheadSec = msg / 2
	m.PerByteCPUSec = c.PerByteCPUSec
	return m
}

// Measure runs the calibration microbenchmarks on this host. It takes a few
// hundred milliseconds.
func Measure() Calibration {
	c := Calibration{}
	c.KernelSecPerCell = measureKernel()
	c.PairCostSec = measurePair()
	c.StaticMsgSec = measureCharmMsg(core.StaticDispatch)
	c.DynamicMsgSec = measureCharmMsg(core.DynamicDispatch)
	c.MPIMsgSec = measureMPIMsg()
	c.PerByteCPUSec = measurePerByte()
	return c
}

func measureKernel() float64 {
	const n = 32
	p := stencil.Params{GridX: n, GridY: n, GridZ: n, BX: 1, BY: 1, BZ: 1, Iters: 1}
	// warm up and time several sequential sweeps
	if _, err := stencil.RunSequential(p); err != nil {
		panic(err)
	}
	const iters = 10
	p.Iters = iters
	t0 := time.Now()
	if _, err := stencil.RunSequential(p); err != nil {
		panic(err)
	}
	el := time.Since(t0).Seconds()
	return el / float64(iters) / float64(n*n*n)
}

func measurePair() float64 {
	// the LJ inner loop cost is approximated with the synthetic-work unit
	// cost times a fixed factor; measured directly via the stencil busy-wait
	// calibrator to avoid exporting leanmd internals
	t0 := time.Now()
	stencil.SyntheticWork(1_000_000)
	perUnit := time.Since(t0).Seconds() / 1_000_000
	return perUnit * 4 // one LJ pair ~ a few FP ops + a sqrt-equivalent
}

// pingChare bounces messages for the overhead measurement. Ping carries a
// when-condition because the mini-apps' hot entry methods do (stencil
// RecvGhost, LeanMD RecvCoords/RecvForces), so the measured per-message
// cost includes condition evaluation.
type pingChare struct {
	core.Chare
	N    int
	Done core.Future
}

func init() {
	core.Bind[pingChare](
		core.EM1((*pingChare).Finish),
		core.EM1((*pingChare).Ping),
	)
}

// Ping counts messages.
func (pc *pingChare) Ping(i int) {
	pc.N++
}

// Finish reports the count.
func (pc *pingChare) Finish(done core.Future) {
	done.Send(pc.N)
}

func measureCharmMsg(mode core.DispatchMode) float64 {
	const msgs = 20000
	// pingChare has entry-method handles (core.Bind), so Compiled mode times
	// the typed dispatch and Interpreted mode the reflective one: the
	// simulator's model of the paper's interpreted-vs-compiled gap.
	rt := core.NewRuntime(core.Config{PEs: 2, Dispatch: mode})
	rt.Register(&pingChare{},
		core.When("Ping", "self.n >= 0"),
		core.ArgNames("Ping", "i"))
	var perMsg float64
	rt.Start(func(self *core.Chare) {
		defer self.Exit()
		p := self.NewChare(&pingChare{}, core.PE(1))
		// warm up
		for i := 0; i < 100; i++ {
			p.Call("Ping", i)
		}
		f := self.CreateFuture()
		p.Call("Finish", f)
		f.Get()
		t0 := time.Now()
		for i := 0; i < msgs; i++ {
			p.Call("Ping", i)
		}
		f2 := self.CreateFuture()
		p.Call("Finish", f2)
		f2.Get()
		perMsg = time.Since(t0).Seconds() / msgs
	})
	return perMsg
}

func measureMPIMsg() float64 {
	const msgs = 20000
	var perMsg float64
	mpi.Run(2, func(c *mpi.Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 100; i++ {
				c.Send(1, 0, i)
			}
			c.Send(1, 1, nil)
			c.Recv(1, 2)
			t0 := time.Now()
			for i := 0; i < msgs; i++ {
				c.Send(1, 0, i)
			}
			c.Send(1, 1, nil)
			c.Recv(1, 2)
			perMsg = time.Since(t0).Seconds() / msgs
			c.Send(1, 3, nil)
		} else {
			for {
				_, _, tag := c.Recv(mpi.AnySource, mpi.AnyTag)
				if tag == 1 {
					c.Send(0, 2, nil)
					continue
				}
				if tag == 3 {
					return
				}
			}
		}
	})
	return perMsg
}

func measurePerByte() float64 {
	payload := make([]float64, 1<<15) // 256 KiB
	var buf bytes.Buffer
	const reps = 50
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		buf.Reset()
		if err := ser.EncodeArgs(&buf, []any{payload}); err != nil {
			panic(err)
		}
		if _, _, err := ser.DecodeArgs(buf.Bytes()); err != nil {
			panic(err)
		}
	}
	el := time.Since(t0).Seconds()
	return el / reps / float64(len(payload)*8) / 2 // per direction
}
