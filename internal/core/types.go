// Package core implements the charmgo runtime: a from-scratch Go
// implementation of the CharmPy programming model (distributed migratable
// objects with asynchronous remote method invocation) together with the
// Charm++-style message-driven scheduler substrate it runs on.
//
// Architecture (see DESIGN.md):
//
//   - A Runtime is one "node" (the paper's OS process). It hosts NumPEs
//     processing elements; each PE is a scheduler goroutine draining an
//     unbounded mailbox and executing one entry method at a time.
//   - Chares are user structs embedding Chare, organised into collections
//     (single chares, Groups with one member per PE, dense N-dimensional
//     Arrays, and sparse arrays with dynamic insertion).
//   - Proxies perform asynchronous remote method invocation; same-node calls
//     pass arguments by reference (paper section II-D), cross-node calls
//     serialize through internal/ser.
//   - Threaded entry methods may suspend on futures and wait-conditions while
//     the PE continues scheduling other work.
//   - Reductions combine contributions per PE and then at a root PE;
//     migration and measurement-based load balancing follow the Charm++
//     AtSync protocol.
package core

import (
	"encoding/binary"
	"fmt"
	"time"
)

// PE identifies a processing element (a scheduler; the unit the paper calls
// a "core"). PEs are numbered globally across all nodes of a job.
type PE int32

// AnyPE asks the runtime to pick a PE when creating a single chare.
const AnyPE PE = -1

// CID identifies a chare collection globally. It encodes the creating PE and
// a per-PE sequence number, so allocation needs no coordination.
type CID int32

func makeCID(creator PE, seq int32) CID { return CID(int32(creator)<<16 | seq) }

// collection kinds
const (
	ckSingle uint8 = iota
	ckGroup
	ckArray
	ckSparse
)

// message kinds
type msgKind uint8

const (
	mInvoke msgKind = iota
	mCreate
	mInsert
	mDoneInserting
	mFutureSet
	mRedPartial
	mMigrate
	mLocUpdate
	mExit
	mStartMain
	mLBStats  // one PE's loads to a collection's root (lb.go)
	mLBMoves  // the root's move order
	mLBAck    // an AtSync move's arrival, to the root
	mLBResume // the end of an AtSync round
	mLBPoll   // a forced round's trigger to the root, and its poll
	mQDStart
	mQDProbe
	mQDReply
	mCkptCollect
	mPing
	mChanMsg
	mTraceReport // node trace report gathered to node 0 at exit

	// fault tolerance (in-memory double checkpointing; ft.go)
	mFTCollect // start a checkpoint epoch: every PE serializes its chares
	mFTBundle  // one PE's bundle to the node-first PE
	mFTBlob    // a node's snapshot blob shipped to its buddy
	mFTRestore // recovery coordinator asks a node what snapshots it holds
	mFTInject  // recovery coordinator orders a holder to re-inject origins
	mFTSeq     // post-recovery collection-id sequence floor broadcast

	// live introspection (core/introspect.go). None of these kinds is
	// counted by quiescence detection (countableKind): sampling is an
	// observer and must not keep a job out of quiescence.
	mIntroSample // sampler asks a local PE for its collection profile
	mIntroReport // a node's snapshot relayed up the tree toward node 0

	// elastic membership (elastic.go). Planned, zero-downtime join/leave:
	// the control traffic of the membership protocol itself. None of these
	// kinds is counted by quiescence detection or by the tree-broadcast
	// causal-order vectors (elasticKind): membership changes must stay
	// invisible to the ordering machinery they are rebuilding.
	mElasticCtl    // join/leave request to the coordinator (node 0)
	mElasticState  // per-PE collection-metadata install on a joining node
	mElasticView   // epoch-versioned membership view commit (acked per PE)
	mElasticCensus // per-PE element census poll, replied via an ext future
	mElasticBye    // post-commit goodbye marker sent to a departing node
	mElasticRehome // node-local: PE rescans element homes after a view change
	mElasticAck    // raw completion of an external future (protocol acks/replies)

	// mRun is node-local: one PE's share of a batch frame, pushed as one
	// mailbox item whose Ctl is the *msgRun (wire.go). Not countable and not
	// serializable: the messages it carries are.
	mRun
)

// idxKeyBuf sizes the stack scratch for an index key: enough for 4
// dimensions; deeper indexes spill into append's own growth.
const idxKeyBuf = 4 * binary.MaxVarintLen64

// appendIdxKey appends the compact map key of an element index to dst. The
// per-message paths (Proxy.destPE, routeInvoke) build the key in a stack
// buffer and look it up as m[string(key)], which does not allocate; idxKey
// is for the paths that store the key.
func appendIdxKey(dst []byte, idx []int) []byte {
	for _, v := range idx {
		dst = binary.AppendVarint(dst, int64(v))
	}
	return dst
}

// idxKey converts an element index to a compact map key. The scratch buffer
// has a constant size so it stays on the stack (a make with a cap derived
// from len(idx) would heap-allocate on every call); only the final string
// conversion allocates.
func idxKey(idx []int) string {
	var buf [idxKeyBuf]byte
	return string(appendIdxKey(buf[:0], idx))
}

// keyIdx reverses idxKey.
func keyIdx(key string) []int {
	data := []byte(key)
	var out []int
	for len(data) > 0 {
		v, n := binary.Varint(data)
		if n <= 0 {
			panic("core: corrupt index key")
		}
		out = append(out, int(v))
		data = data[n:]
	}
	return out
}

func idxEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// idxHash is a small FNV-1a hash of an index, used for home-PE assignment.
func idxHash(idx []int) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range idx {
		x := uint64(v)
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	return h
}

// numElems returns the number of elements in a dense array of given dims.
func numElems(dims []int) int {
	n := 1
	for _, d := range dims {
		n *= d
	}
	return n
}

// linearize converts a dense index into a linear position (row-major).
func linearize(idx, dims []int) int {
	p := 0
	for i, v := range idx {
		p = p*dims[i] + v
	}
	return p
}

// delinearize is the inverse of linearize.
func delinearize(pos int, dims []int) []int {
	idx := make([]int, len(dims))
	for i := len(dims) - 1; i >= 0; i-- {
		idx[i] = pos % dims[i]
		pos /= dims[i]
	}
	return idx
}

// FutureRef identifies a future: the PE whose runtime owns the value slot,
// and a per-PE id. FutureRefs are plain data and may cross nodes.
type FutureRef struct {
	PE PE
	ID int64
}

func (r FutureRef) valid() bool { return r.ID != 0 }

// Message is the unit of communication between chares. Within a node it is
// passed by pointer with Args by reference (the CharmPy same-process
// optimization); across nodes it is serialized.
type Message struct {
	Kind msgKind
	hops int8 // forwarding hop count (location management loop guard)

	// boxed marks an invoke or a future-set in a box from the node's box
	// list (wire.go), which a decoder, a same-node Proxy.invoke or
	// sendFutureSet took: Idx, Args and raw point at storage that is reused
	// once the box is returned. Only the PE dispatch loop (for the message
	// it dequeued) and recheck (for a when-buffered one it took out of
	// el.buf) return one, and only after invoking it inline or handing its
	// value to the future; whoever else holds the pointer or the slices keeps
	// them, and the box is then left to the GC. Cleared by send and copyOf.
	// Unexported: node-local, never serialized.
	boxed bool

	CID    CID
	Idx    []int // destination element; nil means broadcast to collection
	MID    int32 // static entry-method id; -1 means dispatch by Method name
	Src    PE
	Method string    // entry-method name (dynamic dispatch, diagnostics)
	Fut    FutureRef // completion/return future (proxy ret=true)
	Args   []any
	Ctl    any // control payload for non-invoke kinds

	// raw is the encoded argument list a box keeps for a typed handle that
	// reads its parameters off it (binding.keeps); Args is then empty until
	// something needs the list (peState.argList). Node-local.
	raw []byte

	// enq is the tracer-relative enqueue time, stamped at mailbox push only
	// when tracing is enabled; the dequeue side turns it into queue-wait
	// latency (EvRecv). Unexported: node-local, never serialized.
	enq time.Duration

	// shared, when non-nil, marks a node-level broadcast delivered to every
	// local PE as this one shared pointer (zero-copy local fan-out,
	// tree.go): the PE scheduler decrements its refcount after handling and
	// the last PE runs the release hook. Unexported: node-local, never
	// serialized.
	shared *msgShared
}

// copyOf returns a private copy of m for one more receiver of a broadcast.
// The copy shares m's Idx and Args but is not a box and is never returned to
// the box list; nor is m, which is only ever copied, never invoked itself.
func (m *Message) copyOf() *Message {
	cp := *m
	cp.boxed = false
	return &cp
}

func (m *Message) String() string {
	return fmt.Sprintf("msg{%d cid=%d idx=%v m=%s/%d src=%d}", m.Kind, m.CID, m.Idx, m.Method, m.MID, m.Src)
}

// control payloads (gob-encoded across nodes)

type createMsg struct {
	CID     CID
	Kind    uint8
	Type    string
	Dims    []int
	NDims   int
	OnPE    PE
	MapName string
	Args    []any
	Creator PE
	NoInit  bool // restore path: elements arrive via migration, skip ctor

	// ct is the locally resolved registration record for Type, filled by
	// putCollMeta so the send path resolves method ids without locking the
	// registry per call. Unexported: node-local, never serialized by gob.
	ct *chareType
}

type insertMsg struct {
	CID  CID
	Idx  []int
	Args []any
	OnPE PE
}

type doneInsertingMsg struct {
	CID   CID
	Count int // phase 2: one PE's local element count (-1 in phase 1)
	Total int // phase 3: global element count, fixed from now on
}

type redPartialMsg struct {
	CID     CID
	Seq     int64
	Count   int // number of element contributions folded into this partial
	Reducer string
	Data    any      // pre-combined partial (built-in reducers)
	List    []redElt // raw contributions (custom/gather reducers)
	Target  Target
}

type redElt struct {
	Key  string // element index key (for gather ordering)
	Data any
}

type migrateMsg struct {
	CID   CID
	Idx   []int
	Blob  []byte // gob-encoded chare
	RedNo int64
	Load  float64
	LBAck bool // an AtSync round's move: the receiver acks the root
}

type locUpdateMsg struct {
	CID CID
	Idx []int
	At  PE
}

// Target names the receiver of a reduction result: either an entry method of
// a chare/collection (paper: proxy.method) or a future.
type Target struct {
	CID    CID
	Idx    []int // nil = broadcast result to whole collection
	Method string
	Fut    FutureRef
	IsFut  bool
}

// Reducer names a reduction function. Built-in reducers are predeclared
// (SumReducer etc.); custom reducers are registered with Runtime.AddReducer.
// The zero Reducer denotes an empty reduction (a barrier).
type Reducer struct {
	Name string
}

// Built-in reducers (paper section II-F).
var (
	NopReducer     = Reducer{}
	SumReducer     = Reducer{"sum"}
	ProductReducer = Reducer{"product"}
	MaxReducer     = Reducer{"max"}
	MinReducer     = Reducer{"min"}
	GatherReducer  = Reducer{"gather"}
	AndReducer     = Reducer{"logical_and"}
	OrReducer      = Reducer{"logical_or"}
)
