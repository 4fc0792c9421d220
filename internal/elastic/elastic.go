// Package elastic is charmgo's cluster-membership subsystem: it generalizes
// the fault-tolerance recovery path from "react to a crash" into planned,
// zero-downtime reconfiguration. The core runtime implements the membership
// protocol itself (internal/core/elastic.go: fixed-width slots, view
// epochs, join/leave coordination, drain and rebalance); this package adds
// the operational glue around it:
//
//   - Manager (this file) keeps the failure detector's watch set and the
//     TCP peer mesh in lockstep with the membership view, so a planned
//     departure never trips the detector and a joiner is watched from its
//     first committed epoch.
//   - Gate (gate.go) is the serving front end's admission control:
//     mailbox-depth watermarks that shed or delay ingress before the
//     runtime drowns, with counters and a depth histogram.
//   - Splitter (splitter.go) turns the introspection layer's per-element
//     load census into targeted ForceMove calls: hot elements on saturated
//     PEs migrate to the least-loaded active PE.
//   - Service (service.go) is the kvservice serving harness: a keyed Shard
//     array behind a request-routing front end, with node join/leave under
//     live load. examples/kvservice and the benchmark's kv_closed workload
//     both drive it.
package elastic

import (
	"charmgo/internal/core"
	"charmgo/internal/ft"
	"charmgo/internal/transport"
)

// Manager reconciles the fault-tolerance and transport layers with the
// membership view. Install it before Runtime.Start; it registers the
// runtime's view hook.
type Manager struct {
	rt   *core.Runtime
	det  *ft.Detector
	tcp  *transport.TCP
	prev []bool
}

// NewManager wires rt's view changes into det (may be nil) and tcp (may be
// nil, for in-memory transports). On every committed view, newly-inactive
// slots are unwatched and their TCP connections dropped; newly-active slots
// are watched with a fresh grace period.
func NewManager(rt *core.Runtime, det *ft.Detector, tcp *transport.TCP) *Manager {
	m := &Manager{rt: rt, det: det, tcp: tcp}
	// The initial view: unwatch every slot that starts inactive, so a
	// provisioned-but-idle node is never suspected.
	act := map[int]bool{}
	for _, n := range rt.ActiveNodes() {
		act[n] = true
	}
	if det != nil {
		for n := 0; n < det.NumNodes(); n++ {
			if !act[n] {
				det.Unwatch(n)
			}
		}
	}
	rt.SetViewHook(m.onView)
	return m
}

// onView runs on every node after a membership view commits locally.
func (m *Manager) onView(epoch int64, active []bool) {
	for n, a := range active {
		was := m.prev != nil && n < len(m.prev) && m.prev[n]
		switch {
		case a && !was:
			if m.det != nil {
				m.det.Watch(n)
			}
		case !a && (was || m.prev == nil):
			if m.det != nil {
				m.det.Unwatch(n)
			}
			if m.tcp != nil {
				m.tcp.DropPeer(n)
			}
		}
	}
	m.prev = append(m.prev[:0], active...)
}

// Depart runs the leaver's transport-level farewell after the runtime has
// settled: announce the planned departure so peers suppress suspicion, then
// the caller may close the transport.
func (m *Manager) Depart() {
	if m.det != nil {
		m.det.Goodbye()
	}
}
