// Package charerace is a charmvet fixture: every `want` comment marks a
// diagnostic the charerace analyzer must produce on that line.
package charerace

import "charmgo/internal/core"

type Stats struct {
	core.Chare
	Counter int
	Samples []float64
	peers   map[int]string
}

// A closure capturing the receiver races with every later entry method.
func (s *Stats) BumpAsync() {
	go func() {
		s.Counter++ // want "capturing the receiver s"
	}()
}

// A bound method value carries the receiver into the goroutine.
func (s *Stats) WorkAsync() {
	go s.drain() // want "capturing the receiver s"
}

func (s *Stats) drain() {}

// Reference-like projections of chare state alias it even when passed as
// launch-time arguments.
func (s *Stats) ShareSlice(done core.Future) {
	go consume(s.Samples, done) // want "capturing the receiver s"
}

func consume(xs []float64, done core.Future) {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	done.Send(total)
}

// Taint follows aliases through locals.
func (s *Stats) ShareViaLocal(done core.Future) {
	view := s.Samples
	go consume(view, done) // want "capturing view"
}

// A helper that hands its parameter to a goroutine is seen through.
func spawn(m map[int]string) {
	go func() {
		_ = len(m)
	}()
}

func (s *Stats) ShareViaHelper() {
	spawn(s.peers) // want "hands it to a goroutine"
}

// Fine: copy the scalar out, compute concurrently, come back through a
// Future Send — the sanctioned pattern.
func (s *Stats) SumAsync(done core.Future) {
	n := s.Counter
	go func() {
		done.Send(n * n)
	}()
}

// Fine: a deep copy severs the alias before the launch.
func (s *Stats) SumSamplesAsync(done core.Future) {
	cp := make([]float64, len(s.Samples))
	copy(cp, s.Samples)
	go func() {
		total := 0.0
		for _, x := range cp {
			total += x
		}
		done.Send(total)
	}()
}

// Fine: goroutines are unrestricted outside entry methods.
func background(s *Stats) {
	go func() {
		_ = s.Counter
	}()
}

// ---- work-stealing scheduler types (DESIGN.md §3.9) ----
//
// Stealable chares (no threaded or when-gated methods) may execute on any
// PE of the node, so a receiver-capturing goroutine races not just with the
// owner's next entry method but with a thief running the element elsewhere.
// The same diagnostics must keep firing on these types.

type StealWorker struct {
	core.Chare
	Hits int
	Bins []int64
}

func (w *StealWorker) Bump(done core.Future) {
	w.Hits++
	done.Send(w.Hits)
}

// A grant serializes entry methods, not receiver-capturing goroutines: this
// race is worse under stealing because the next executor may be a thief PE.
func (w *StealWorker) BumpDetached() {
	go func() {
		w.Hits++ // want "capturing the receiver w"
	}()
}

// Sharing mutable chare state with a goroutine aliases it across PEs once
// the element's run grant moves.
func (w *StealWorker) ShareBins(done core.Future) {
	go consumeBins(w.Bins, done) // want "capturing the receiver w"
}

func consumeBins(xs []int64, done core.Future) {
	var total int64
	for _, x := range xs {
		total += x
	}
	done.Send(total)
}

// Fine: scalar copy out, result returns through a Future — safe no matter
// which PE holds the grant.
func (w *StealWorker) SumDetached(done core.Future) {
	n := w.Hits
	go func() {
		done.Send(n + 1)
	}()
}
