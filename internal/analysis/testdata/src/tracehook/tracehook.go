// Package tracehook is a charmvet fixture: every `want` comment marks a
// diagnostic the tracehook analyzer must produce on that line.
package tracehook

import (
	"charmgo/internal/metrics"
	"charmgo/internal/trace"
)

// observer mirrors core's instrumentation seam: nil when every observer is
// off (the analyzer keys on the type's name). Its instruments come from a
// registry and are never nil; its tracer may be.
type observer struct {
	sends *metrics.Counter
	tr    *trace.Tracer
}

func (o *observer) sent() { o.sends.Inc() }

// An observer method's calls on its own receiver need no guard.
func (o *observer) qd(pe int) {
	o.sent()
	o.tr.QD(pe, 0) // want "not behind a nil guard"
	if tr := o.tr; tr != nil {
		tr.QD(pe, 0)
	}
}

type runtime struct {
	tr  *trace.Tracer
	obs *observer
}

func (rt *runtime) unguarded(pe int) {
	rt.tr.QD(pe, 0) // want "not behind a nil guard"
	rt.obs.qd(pe)   // want "not behind a nil guard"
	rt.obs.sent()   // want "not behind a nil guard"
}

func (rt *runtime) guarded(pe int) {
	if tr := rt.tr; tr != nil {
		tr.QD(pe, 0)
	}
	if rt.tr != nil && pe >= 0 {
		rt.tr.QD(pe, 0)
	}
	if o := rt.obs; o != nil {
		o.qd(pe)
	}
}

func (rt *runtime) earlyReturn(pe int) {
	tr := rt.tr
	if tr == nil || pe < 0 {
		return
	}
	tr.QD(pe, 0)
}

func (rt *runtime) elseBranch(pe int) {
	if rt.tr == nil {
		_ = pe
	} else {
		rt.tr.QD(pe, 0)
	}
}

func (rt *runtime) wrongGuard(pe int) {
	if rt.obs != nil {
		rt.tr.QD(pe, 0) // want "not behind a nil guard"
	}
}

// A guard outside a closure does not protect calls inside it: the closure
// may run later, against different state.
func (rt *runtime) closureEscape(pe int) func() {
	if rt.tr != nil {
		return func() {
			rt.tr.QD(pe, 0) // want "not behind a nil guard"
		}
	}
	return nil
}

// Constructor results are never nil.
func fresh(pes int) {
	tr := trace.New(pes)
	tr.QD(0, 0)
}

// Instruments taken straight from a Registry are non-nil by construction.
func direct(reg *metrics.Registry) {
	c := reg.Counter("x", "")
	c.Inc()
}
