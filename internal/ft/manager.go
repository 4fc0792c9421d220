// Package ft is charmgo's fault-tolerance subsystem, modelled on Charm++'s
// double in-memory checkpoint/restart: a heartbeat failure detector layered
// on the transport (detector.go), an in-memory buddy snapshot store
// (Manager, implementing core.FTStore), a per-node recovery driver that
// rebuilds the runtime from the surviving snapshots after a peer dies
// (job.go), and a fault-injection chaos transport for testing and
// benchmarking recovery (chaos.go). See DESIGN.md §3.4.
package ft

import (
	"sort"
	"sync"
	"time"

	"charmgo/internal/core"
)

// Manager is the standard in-memory snapshot store. One Manager outlives
// the runtime incarnations of a node: the recovery driver hands the same
// store to every rebuilt runtime so the snapshots survive the failure.
// It retains the two most recent epochs (the committed one and, during a
// checkpoint, its predecessor), like Charm++'s double-buffered scheme.
type Manager struct {
	mu    sync.Mutex
	blobs map[snapKey][]byte
	meta  map[snapKey]core.FTHolding

	recoveries   int
	lastRecovery time.Duration
}

type snapKey struct {
	epoch  int64
	origin int
}

// NewManager creates an empty snapshot store.
func NewManager() *Manager {
	return &Manager{blobs: map[snapKey][]byte{}, meta: map[snapKey]core.FTHolding{}}
}

// StoreSnapshot implements core.FTStore. Epochs older than epoch-1 are
// pruned: once an epoch commits everywhere, its predecessor's predecessor
// can never be elected again.
func (m *Manager) StoreSnapshot(epoch int64, origin, numNodes int, blob []byte, own bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := snapKey{epoch: epoch, origin: origin}
	m.blobs[k] = blob
	m.meta[k] = core.FTHolding{Epoch: epoch, Origin: origin, NumNodes: numNodes, Own: own}
	for old := range m.blobs {
		if old.epoch < epoch-1 {
			delete(m.blobs, old)
			delete(m.meta, old)
		}
	}
}

// Holdings implements core.FTStore.
func (m *Manager) Holdings() []core.FTHolding {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]core.FTHolding, 0, len(m.meta))
	for _, h := range m.meta {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Epoch != out[j].Epoch {
			return out[i].Epoch < out[j].Epoch
		}
		return out[i].Origin < out[j].Origin
	})
	return out
}

// Snapshot implements core.FTStore.
func (m *Manager) Snapshot(origin int, epoch int64) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.blobs[snapKey{epoch: epoch, origin: origin}]
	return b, ok
}

func (m *Manager) recordRecovery(d time.Duration) {
	m.mu.Lock()
	m.recoveries++
	m.lastRecovery = d
	m.mu.Unlock()
}
