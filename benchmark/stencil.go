package main

import (
	"math"
	"math/rand"
	"time"

	"charmgo/internal/core"
	"charmgo/internal/metrics"
	"charmgo/internal/stencil"
	"charmgo/internal/trace"
)

// The stencil workloads run the paper's stencil3d (section V-A) on a 64³
// grid with 2 PEs on one node. A window is one pair of jobs: k Jacobi steps
// through the runtime, then a shorter job of stencil.RunSequential, the plain
// single-threaded baseline of speedup_vs_seq. k is drawn from the seed once
// per run, and every runtime job's checksum must equal the sequential solve
// of k steps, which is computed once (seqChecksum).
const (
	stencilGrid = 64
	stencilPEs  = 2
	// checksumTol is the relative difference allowed between the runtime's
	// block-wise checksum and the sequential one (summation order differs).
	checksumTol = 1e-9
)

type stencilSys struct {
	p     stencil.Params
	k     int       // steps of a job through the runtime
	kBase int       // steps of the sequential baseline job that follows it
	obs   *observer // nil unless observing
}

// bootStencil returns the boot function of a stencil workload with the given
// block decomposition, a job length drawn from the seed in lo..hi, and a
// baseline job of kBase steps.
func bootStencil(bx, by, bz, lo, hi, kBase int) func(bootOpts) (system, error) {
	return func(o bootOpts) (system, error) {
		s := &stencilSys{
			p:     stencil.Params{GridX: stencilGrid, GridY: stencilGrid, GridZ: stencilGrid, BX: bx, BY: by, BZ: bz},
			k:     lo + rand.New(rand.NewSource(o.seed)).Intn(hi-lo+1),
			kBase: kBase,
		}
		if o.observe {
			s.obs = &observer{}
		}
		// Set-up as a user pays it: boot the runtime, create the block
		// array, run one step, tear down.
		if _, _, _, err := s.job(1, nil); err != nil {
			return nil, err
		}
		return s, nil
	}
}

// job runs k steps through a fresh single-node runtime, exactly as
// stencil.RunCharm does, keeping the runtime handle for its message counts.
func (s *stencilSys) job(k int, tr *trace.Tracer) (res stencil.Result, local, wire int64, err error) {
	p := s.p
	p.Iters = k
	if _, _, _, err = p.Validate(); err != nil {
		return res, 0, 0, err
	}
	cfg := core.Config{PEs: stencilPEs, Trace: tr}
	if tr != nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	rt := core.NewRuntime(cfg)
	stencil.Register(rt)
	rt.Start(stencil.Entry(p, &res))
	local, wire = rt.MsgCounts()
	return res, local, wire, nil
}

// seqChecksums caches seqChecksum's results by step count; the sequential
// solve does not depend on the block decomposition.
var seqChecksums = map[int]float64{}

// seqChecksum returns the checksum of k sequential Jacobi steps on the
// benchmark's grid: the reference of every runtime job of that length. The
// first call for a k runs the solve, which happens in a run's warm-up window.
func seqChecksum(k int) (float64, error) {
	if ref, ok := seqChecksums[k]; ok {
		return ref, nil
	}
	ref, err := stencil.RunSequential(seqParams(k))
	if err == nil {
		seqChecksums[k] = ref
	}
	return ref, err
}

func (s *stencilSys) window(time.Duration) (window, error) {
	var tr *trace.Tracer
	if s.obs != nil {
		tr = trace.New(stencilPEs)
	}
	var w window
	m := startMeter()
	res, local, wire, err := s.job(s.k, tr)
	m.stop(&w)
	if err != nil {
		return w, err
	}
	w.ops, w.local, w.wire = int64(s.k), local, wire
	if s.obs != nil {
		s.obs.addTrace(tr)
	}
	ref, err := seqChecksum(s.k)
	if err != nil {
		return w, err
	}
	if math.Abs(res.Checksum-ref) > checksumTol*math.Abs(ref) {
		w.failed = int64(s.k) // every step of a job with a wrong answer is wrong
	}

	t0 := time.Now()
	_, err = stencil.RunSequential(seqParams(s.kBase))
	baseDur := time.Since(t0)
	if err != nil {
		return w, err
	}
	w.ratio = w.rate() / (float64(s.kBase) / baseDur.Seconds())
	return w, nil
}

func (s *stencilSys) observed() observation {
	if s.obs == nil {
		return observation{}
	}
	return s.obs.result()
}

func (s *stencilSys) close() (int64, error) { return 0, nil }
