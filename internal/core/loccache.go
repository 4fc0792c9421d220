package core

import (
	"sync"
	"sync/atomic"
)

// locCache is the runtime's element-location hint cache, sharded so the hot
// read path (Proxy.destPE resolves a location per element-addressed send)
// never contends on a global map lock (DESIGN.md §3.9).
//
// Each shard keeps two maps:
//
//   - published: an immutable map behind an atomic pointer. Readers load it
//     lock-free; it is replaced wholesale (epoch-published) when the dirty
//     overlay has grown enough to be worth merging.
//   - dirty: a small mutex-guarded overlay holding recent writes (and
//     tombstones for deletions). Readers consult it only when dirtyN says it
//     is non-empty, so a read in steady state is one atomic load, one map
//     lookup, and zero lock acquisitions.
//
// Writers append to the overlay and republish when it exceeds
// max(locMergeMin, len(published)/4); the epoch counter increments per
// republish (tests assert publishes are batched, not per-write).
//
// Correctness does not depend on read freshness: locations are hints only —
// a stale hint forwards through the home-based location protocol (pe.go
// forward), which self-heals the cache.

const (
	locShards   = 256
	locMergeMin = 64
)

// locTomb marks a deleted entry in the dirty overlay (scrubLocNode): the
// deletion must shadow the published map until the next merge.
const locTomb PE = -1

type locKey struct {
	cid CID
	key string
}

type locShard struct {
	published atomic.Pointer[map[locKey]PE]
	epoch     atomic.Uint64

	mu     sync.Mutex
	dirty  map[locKey]PE
	dirtyN atomic.Int32
}

type locCache struct {
	shards [locShards]locShard
}

func newLocCache() *locCache {
	lc := &locCache{}
	empty := map[locKey]PE{}
	for i := range lc.shards {
		lc.shards[i].published.Store(&empty)
	}
	return lc
}

// locShardOf hashes an element key — given as the string it is stored under
// or as the bytes a per-message lookup built on its stack — to a shard index.
func locShardOf[K string | []byte](cid CID, key K) uint64 {
	h := uint64(uint32(cid)) * 0x9e3779b97f4a7c15
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 0x100000001b3
	}
	return h % locShards
}

// get returns the cached location hint for an element, if any. Lock-free in
// steady state (no pending overlay writes in the shard), and allocation-free:
// the key bytes are only ever converted inside a map index expression.
func (lc *locCache) get(cid CID, key []byte) (PE, bool) {
	s := &lc.shards[locShardOf(cid, key)]
	if s.dirtyN.Load() > 0 {
		s.mu.Lock()
		pe, ok := s.dirty[locKey{cid: cid, key: string(key)}]
		s.mu.Unlock()
		if ok {
			if pe == locTomb {
				return 0, false
			}
			return pe, true
		}
	}
	if pe, ok := (*s.published.Load())[locKey{cid: cid, key: string(key)}]; ok {
		return pe, true
	}
	return 0, false
}

// put records a location hint, merging the overlay into a freshly published
// map when it has grown enough.
func (lc *locCache) put(cid CID, key string, pe PE) {
	s := &lc.shards[locShardOf(cid, key)]
	k := locKey{cid: cid, key: key}
	s.mu.Lock()
	if s.dirty == nil {
		s.dirty = map[locKey]PE{}
	}
	if _, seen := s.dirty[k]; !seen {
		s.dirtyN.Add(1)
	}
	s.dirty[k] = pe
	s.maybeMergeLocked()
	s.mu.Unlock()
}

// maybeMergeLocked republishes published+dirty when the overlay is large
// relative to the published map. Caller holds s.mu.
func (s *locShard) maybeMergeLocked() {
	pub := *s.published.Load()
	threshold := len(pub) / 4
	if threshold < locMergeMin {
		threshold = locMergeMin
	}
	if len(s.dirty) <= threshold {
		return
	}
	s.mergeLocked(pub)
}

// mergeLocked publishes a new immutable map of published+dirty (tombstones
// drop their entries) and clears the overlay. Caller holds s.mu.
func (s *locShard) mergeLocked(pub map[locKey]PE) {
	next := make(map[locKey]PE, len(pub)+len(s.dirty))
	for k, v := range pub {
		next[k] = v
	}
	for k, v := range s.dirty {
		if v == locTomb {
			delete(next, k)
		} else {
			next[k] = v
		}
	}
	s.published.Store(&next)
	s.epoch.Add(1)
	s.dirty = nil
	s.dirtyN.Store(0)
}

// scrubRange drops every hint pointing into the PE range [lo, hi) — elastic
// membership retires a node and its slots' hints with it. Each affected
// shard republishes once.
func (lc *locCache) scrubRange(lo, hi PE) {
	for i := range lc.shards {
		s := &lc.shards[i]
		s.mu.Lock()
		pub := *s.published.Load()
		changed := false
		for k, v := range pub {
			if v >= lo && v < hi {
				if s.dirty == nil {
					s.dirty = map[locKey]PE{}
				}
				if _, seen := s.dirty[k]; !seen {
					s.dirtyN.Add(1)
				}
				s.dirty[k] = locTomb
				changed = true
			}
		}
		for k, v := range s.dirty {
			if v != locTomb && v >= lo && v < hi {
				s.dirty[k] = locTomb
				changed = true
			}
		}
		if changed {
			s.mergeLocked(pub)
		}
		s.mu.Unlock()
	}
}
