// Package gobsafe is a charmvet fixture: every `want` comment marks a
// diagnostic the gobsafe analyzer must produce on that line.
package gobsafe

import (
	"charmgo/internal/core"
	"charmgo/internal/ser"
)

type Cell struct {
	core.Chare
}

// Payload carries an unexported field: gob drops it silently.
type Payload struct {
	Visible int
	secret  int
}

// Wrapped reaches Payload through a slice.
type Wrapped struct {
	Items []Payload
}

func (c *Cell) Recv(p Payload) {} // want "unexported field \"secret\""

func (c *Cell) RecvNested(w Wrapped) {} // want "unexported field \"secret\""

// Sealed has unexported state but custom marshalling: trusted.
type Sealed struct {
	raw []byte
}

func (s Sealed) GobEncode() ([]byte, error)  { return s.raw, nil }
func (s *Sealed) GobDecode(b []byte) error   { s.raw = append([]byte(nil), b...); return nil }
func (c *Cell) RecvSealed(s Sealed)          {}
func (c *Cell) RecvClean(n int, name string) {}

// Event is never gob-registered anywhere in this package.
type Event struct{ Kind int }

// Registered is.
type Registered struct{ Kind int }

func init() {
	ser.RegisterType(Registered{})
}

func kick(pr core.Proxy, fut core.Future) {
	pr.Call("Recv", Event{Kind: 1}) // want "never gob-registered"
	fut.Send(Event{Kind: 2})        // want "never gob-registered"
	pr.Call("Recv", Registered{Kind: 1})
	pr.Call("Recv", 42, "strings are fine")
}

// Fault-tolerance-style wire messages (internal/ft ships checkpoint blobs
// and holdings between nodes): the same gob rules apply to them.

// FTBlob mirrors a checkpoint-shipping control message: exported fields
// only, gob-registered below.
type FTBlob struct {
	Epoch    int64
	Origin   int
	NumNodes int
	Blob     []byte
}

// FTHolding mirrors a snapshot-inventory reply sent as a future value.
type FTHolding struct {
	Epoch  int64
	Origin int
	Own    bool
}

// FTBadBundle smuggles node-local state into a wire message.
type FTBadBundle struct {
	Epoch int64
	store map[int][]byte
}

func (c *Cell) RecvFTBlob(b FTBlob, hs []FTHolding) {}
func (c *Cell) RecvFTBad(b FTBadBundle)             {} // want "unexported field \"store\""

func init() {
	ser.RegisterType(FTBlob{})
	ser.RegisterType(FTHolding{})
}

// FTUnregistered is a wire-clean shape that nobody registered.
type FTUnregistered struct{ Epoch int64 }

func kickFT(pr core.Proxy, fut core.Future) {
	fut.Send(FTHolding{Epoch: 3, Origin: 1, Own: true})
	pr.Call("RecvFTBlob", FTBlob{Epoch: 3}, []FTHolding{})
	fut.Send(FTUnregistered{Epoch: 3}) // want "never gob-registered"
}

// Spanning-tree-collective-style wire messages (internal/core relays
// broadcast payloads and reduction partials over the k-ary node tree): the
// gob rules apply to anything a broadcast or a reduction carries.

// TreeBcastPayload mirrors a broadcast argument fanned out over the
// spanning tree: exported fields only, gob-registered below.
type TreeBcastPayload struct {
	Root    int
	Seq     uint64
	Payload []byte
}

// TreePartial mirrors a reduction partial combined at interior tree nodes.
type TreePartial struct {
	Contribs int
	Value    float64
}

// TreeBadPartial hides combiner state the receiving node could never see.
type TreeBadPartial struct {
	Contribs int
	pending  []float64
}

func (c *Cell) RecvTreeBcast(p TreeBcastPayload, ps []TreePartial) {}
func (c *Cell) RecvTreeBad(p TreeBadPartial)                       {} // want "unexported field \"pending\""

func init() {
	ser.RegisterType(TreeBcastPayload{})
	ser.RegisterType(TreePartial{})
}

// TreeUnregistered is wire-clean but never registered with gob.
type TreeUnregistered struct{ Root int }

func kickTree(pr core.Proxy, fut core.Future) {
	fut.Send(TreePartial{Contribs: 2, Value: 1.5})
	pr.Call("RecvTreeBcast", TreeBcastPayload{Root: 0, Seq: 1}, []TreePartial{})
	fut.Send(TreeUnregistered{Root: 1}) // want "never gob-registered"
}

// Introspection-control-style wire messages (internal/core ships node
// snapshots up the spanning tree and forced-LB census frames between PEs):
// the same gob rules apply to the CCS control channel.

// IntroPESample mirrors one PE's utilization sample inside a shipped node
// snapshot: exported fields only, gob-registered below.
type IntroPESample struct {
	PE    int
	Busy  int64
	Util  float64
	Depth int
}

// IntroSnapshot mirrors the per-node report relayed to node 0.
type IntroSnapshot struct {
	Node int
	Seq  int64
	PEs  []IntroPESample
}

// IntroBadSnapshot carries the sampler's private delta state: node 0 could
// never decode it.
type IntroBadSnapshot struct {
	Node     int
	prevBusy []int64
}

func (c *Cell) RecvIntroReport(s IntroSnapshot)  {}
func (c *Cell) RecvIntroBad(s IntroBadSnapshot)  {} // want "unexported field \"prevBusy\""
func (c *Cell) RecvIntroPair(ps []IntroPESample) {}

func init() {
	ser.RegisterType(IntroSnapshot{})
	ser.RegisterType(IntroPESample{})
}

// IntroUnregistered is wire-clean but never registered with gob.
type IntroUnregistered struct{ Seq int64 }

func kickIntro(pr core.Proxy, fut core.Future) {
	fut.Send(IntroSnapshot{Node: 1, Seq: 7})
	pr.Call("RecvIntroPair", []IntroPESample{{PE: 0, Util: 0.5}})
	fut.Send(IntroUnregistered{Seq: 7}) // want "never gob-registered"
}

// Elastic-membership-style wire messages (internal/core ships view commits,
// drain censuses and element-rehome notices during planned node join/leave):
// the same gob rules apply to the reconfiguration control plane.

// ElasticView mirrors a membership-view commit broadcast by the coordinator:
// exported fields only, gob-registered below.
type ElasticView struct {
	Epoch  int64
	Active []int
	Deleg  []int
}

// ElasticCensus mirrors a draining node's element-census reply.
type ElasticCensus struct {
	Node  int
	CID   int32
	Elems int
}

// ElasticBadView leaks the coordinator's private commit-wait state into a
// frame the other nodes could never decode.
type ElasticBadView struct {
	Epoch   int64
	pending map[int]bool
}

func (c *Cell) RecvElasticView(v ElasticView, cs []ElasticCensus) {}
func (c *Cell) RecvElasticBad(v ElasticBadView)                   {} // want "unexported field \"pending\""

func init() {
	ser.RegisterType(ElasticView{})
	ser.RegisterType(ElasticCensus{})
}

// ElasticUnregistered is wire-clean but never registered with gob.
type ElasticUnregistered struct{ Epoch int64 }

func kickElastic(pr core.Proxy, fut core.Future) {
	fut.Send(ElasticCensus{Node: 1, CID: 2, Elems: 4})
	pr.Call("RecvElasticView", ElasticView{Epoch: 2}, []ElasticCensus{})
	fut.Send(ElasticUnregistered{Epoch: 2}) // want "never gob-registered"
}

// ---- work-stealing scheduler control types (DESIGN.md §3.9) ----
// A run-grant handback crosses PE mailboxes as a control message; its
// payload obeys the same gob rules as any other frame.

// GrantHandback mirrors a thief returning an element's run grant to its
// owner: exported fields only, gob-registered below.
type GrantHandback struct {
	CID int32
	Key string
}

// GrantHandbackBad smuggles the thief's private deque bookkeeping into the
// frame; the owner could never decode it.
type GrantHandbackBad struct {
	CID     int32
	pending []int64
}

func (c *Cell) RecvHandback(h GrantHandback)       {}
func (c *Cell) RecvHandbackBad(h GrantHandbackBad) {} // want "unexported field \"pending\""

func init() {
	ser.RegisterType(GrantHandback{})
}

// ---- quiescence-detection control types (DESIGN.md §3.10) ----
// A node answers the coordinator's probe with the sums of its per-PE sent
// and done counters; the reply is a gob frame like any other. (The Busy
// flag it used to carry went with the counter of running entry methods.)

// QDReply mirrors a node's answer to one polling wave: exported fields
// only, gob-registered below.
type QDReply struct {
	Round int64
	Sent  int64
	Done  int64
}

// QDReplyBad carries the coordinator's memory of the previous wave, which
// no node could decode and none has any business sending.
type QDReplyBad struct {
	Round    int64
	prevDone int64
}

func (c *Cell) RecvQDReply(r QDReply)       {}
func (c *Cell) RecvQDReplyBad(r QDReplyBad) {} // want "unexported field \"prevDone\""

func init() {
	ser.RegisterType(QDReply{})
}
