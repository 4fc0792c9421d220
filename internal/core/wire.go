package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"charmgo/internal/ser"
)

func init() {
	// Control payloads travel inside Message.Ctl (an interface), so their
	// concrete types must be registered with gob.
	for _, v := range []any{
		&createMsg{}, &insertMsg{}, &doneInsertingMsg{}, &futSetMsg{},
		&redPartialMsg{}, &migrateMsg{}, &locUpdateMsg{},
		&lbStatsMsg{}, &lbMovesMsg{}, &lbResumeMsg{},
		&qdStartMsg{}, &qdProbeMsg{}, &qdReplyMsg{}, &ckptCollectMsg{},
		ckptBundle{}, &chanMsg{}, &traceReportMsg{},
		&ftCollectMsg{}, &ftBundleMsg{}, &ftBlobMsg{}, &ftRestoreMsg{},
		&ftInjectMsg{}, &ftSeqMsg{}, ftHoldingsMsg{}, ftInjectAck{},
		&introReportMsg{}, &introLBMsg{}, &introLBPollMsg{},
		&introLBStatsMsg{}, &introLBMovesMsg{},
		&elasticCtlMsg{}, &elasticStateMsg{}, &elasticViewMsg{},
		&elasticCensusMsg{}, &elasticCensusReply{}, &elasticByeMsg{},
	} {
		ser.RegisterType(v)
	}
}

// Wire format (v2). A frame is:
//
//	[4B LE dest PE][1B kind][kind-specific body]
//
// dest < 0 means node-level broadcast (deliver to every PE of the receiving
// node). The hot kinds (mInvoke, mFutureSet) use a compact custom encoding
// whose headers are varints and whose argument lists go through internal/ser
// (direct-copy numeric buffers, gob fallback); everything else is
// gob-encoded wholesale.
//
// Aggregated (TRAM-style) traffic uses a batch frame instead:
//
//	[4B LE batchDest][ [4B LE len][frame] ... ]
//
// where batchDest is the reserved pseudo-destination -2. Every message from
// one node to another travels in a batch (aggregator.go); a standard frame
// of its own carries exit and control traffic, or sits inside a tree
// broadcast.
//
// Spanning-tree collectives (tree.go) add two more reserved shapes:
//
//	[4B LE dest <= -6][sent vector][inner -1 frame]        tree broadcast
//	[4B LE -5][1B kind][uvarint root seq idx total][chunk] broadcast fragment
//
// A tree-broadcast dest word encodes the originating root (root = -6 -
// dest). The sent vector is numNodes uvarints: the root's count of direct
// messages already sent to each node, snapshotted when the broadcast was
// issued. Receivers relay the still-encoded frame to their children in the
// k-ary tree rooted at root immediately, but hold local delivery of the
// embedded standard frame until they have ingressed that many direct
// messages from the root — relayed broadcasts travel a different path than
// per-link FIFO traffic and would otherwise overtake it. Fragment frames
// carry a slice of a large tree-broadcast frame (vector included); the kind
// byte is replicated into each fragment so relays can keep quiescence
// accounting without reassembly. Destinations -3 and -4 are claimed by the
// fault-tolerance detector's heartbeat and death-notice control frames
// (internal/ft).
//
// Entry-method names in mInvoke frames are interned against the wireTables
// built from the chare-type registry: since every node registers the same
// types before Start (a documented requirement the deterministic dispatch
// ids already rely on), both sides derive an identical sorted name table,
// and hot invokes ship a 1-2 byte id instead of the method string. Unknown
// names (never produced by registered types, but possible for hand-built
// messages) fall back to inline strings.

// batchDest is the reserved pseudo-destination marking a batch frame.
const batchDest = int32(-2)

// wireTables is the deterministic method-name interning table. It is built
// once at Runtime.Start from the registered chare types and read-only
// afterwards, so frame encode/decode can use it without locks.
type wireTables struct {
	names []string         // interned id -> method name
	ids   map[string]int32 // method name -> interned id
}

func buildWireTables(types map[string]*chareType) *wireTables {
	seen := map[string]bool{}
	for _, ct := range types {
		for _, mi := range ct.methods {
			seen[mi.name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	wt := &wireTables{names: names, ids: make(map[string]int32, len(names))}
	for i, n := range names {
		wt.ids[n] = int32(i)
	}
	return wt
}

// encodeMsg serializes a message into a fresh frame without interning.
// Hot paths use appendMsg with a pooled buffer and the runtime's tables.
func encodeMsg(dest PE, m *Message) []byte {
	return appendMsg(nil, dest, m, nil)
}

// appendMsg appends the frame for m to dst and returns the extended slice.
// With a pooled, pre-sized dst it performs no allocations outside the gob
// fallback. wt may be nil (method names are then shipped as strings).
func appendMsg(dst []byte, dest PE, m *Message, wt *wireTables) []byte {
	switch m.Kind {
	case mInvoke:
		return appendInvoke(dst, dest, m, wt)
	case mFutureSet:
		dst = appendFrameHdr(dst, dest, m.Kind)
		fs := m.Ctl.(*futSetMsg)
		dst = binary.AppendVarint(dst, int64(fs.Ref.PE))
		dst = binary.AppendVarint(dst, fs.Ref.ID)
		var err error
		if dst, err = ser.AppendArgs(dst, []any{fs.Val}); err != nil {
			panic(fmt.Sprintf("core: cannot serialize future value: %v", err))
		}
		return dst
	}
	// Cold path (control traffic): gob into a scratch buffer and copy.
	// Writing through a pointer to dst instead would make the slice
	// header escape and cost the hot kinds an allocation per call.
	dst = appendFrameHdr(dst, dest, m.Kind)
	var gb bytes.Buffer
	enc := gob.NewEncoder(&gb)
	if err := enc.Encode(m); err != nil {
		panic(fmt.Sprintf("core: cannot serialize control message kind %d: %v", m.Kind, err))
	}
	return append(dst, gb.Bytes()...)
}

func appendFrameHdr(dst []byte, dest PE, kind msgKind) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(dest)))
	return append(dst, byte(kind))
}

// appendInvoke is appendMsg for an mInvoke, and the whole of its encoder. It
// only reads m — handing m to gob is what makes appendMsg's argument escape —
// so a sender that knows it has an invoke for another node (Proxy.invoke)
// keeps the Message on its stack and calls this directly.
func appendInvoke(dst []byte, dest PE, m *Message, wt *wireTables) []byte {
	dst = appendFrameHdr(dst, dest, mInvoke)
	dst = binary.AppendVarint(dst, int64(m.CID))
	dst = binary.AppendVarint(dst, int64(m.Src))
	dst = binary.AppendVarint(dst, int64(m.MID))
	dst = binary.AppendVarint(dst, int64(m.Fut.PE))
	dst = binary.AppendVarint(dst, m.Fut.ID)
	dst = appendMethod(dst, m.Method, wt)
	dst = appendIdx(dst, m.Idx)
	// Generated typed encoder when the send path resolved one; it is
	// byte-identical with ser.AppendArgs, so receivers decode either way.
	if m.gen != nil && m.MID >= 0 && int(m.MID) < len(m.gen.Enc) {
		if enc := m.gen.Enc[m.MID]; enc != nil {
			if out, ok := enc(dst, m.Args); ok {
				return out
			}
		}
	}
	dst, err := ser.AppendArgs(dst, m.Args)
	if err != nil {
		panic(fmt.Sprintf("core: cannot serialize arguments of %s: %v", m.Method, err))
	}
	return dst
}

// appendMethod writes uvarint(id+1) for interned names, or 0 followed by the
// inline string for names absent from the table.
func appendMethod(dst []byte, method string, wt *wireTables) []byte {
	if wt != nil {
		if id, ok := wt.ids[method]; ok {
			return binary.AppendUvarint(dst, uint64(id)+1)
		}
	}
	dst = append(dst, 0)
	dst = binary.AppendUvarint(dst, uint64(len(method)))
	return append(dst, method...)
}

// appendIdx encodes an index; 0 length marker means nil (broadcast).
func appendIdx(dst []byte, idx []int) []byte {
	if idx == nil {
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(idx)+1))
	for _, v := range idx {
		dst = binary.AppendVarint(dst, int64(v))
	}
	return dst
}

// decodeMsg decodes a frame without interning tables (test/diagnostic use).
func decodeMsg(frame []byte) (PE, *Message, error) {
	return decodeMsgWT(frame, nil)
}

func decodeMsgWT(frame []byte, wt *wireTables) (PE, *Message, error) {
	return decodeMsgFull(frame, wt, false, nil, nil)
}

// decodeFrame is the runtime's ingress decoder: it additionally resolves
// generated bindings for invoke frames, so argument lists of bound chare
// types decode through typed generated readers instead of the reflective
// generic decoder, and it takes invoke boxes from the caller's stock (nil:
// a new box per invoke).
//
// owned is for a frame the caller owns outright and keeps immutable and
// un-recycled for the lifetime of the message: []byte arguments alias the
// frame instead of being copied. Reassembled tree broadcasts use it — their
// buffer is garbage-collected, so the decoded message is the only payload
// copy the node ever makes.
func (rt *Runtime) decodeFrame(frame []byte, owned bool, boxes *boxStock) (PE, *Message, error) {
	return decodeMsgFull(frame, rt.wt, owned, rt, boxes)
}

func decodeMsgFull(frame []byte, wt *wireTables, alias bool, rt *Runtime, boxes *boxStock) (PE, *Message, error) {
	if len(frame) < 5 {
		return 0, nil, fmt.Errorf("short frame (%d bytes)", len(frame))
	}
	dest := PE(int32(binary.LittleEndian.Uint32(frame)))
	kind := msgKind(frame[4])
	body := frame[5:]
	switch kind {
	case mInvoke:
		m := boxes.take()
		if err := decodeInvoke(m, body, wt, alias, rt); err != nil {
			boxes.giveBack(m)
			return 0, nil, err
		}
		return dest, m, nil
	case mFutureSet:
		r := &reader{b: body}
		ref := FutureRef{PE: PE(r.varint())}
		ref.ID = r.varint()
		if r.err != nil {
			return 0, nil, r.err
		}
		vals, _, err := ser.DecodeArgs(r.rest())
		if err != nil || len(vals) != 1 {
			return 0, nil, fmt.Errorf("future value: %v", err)
		}
		return dest, &Message{Kind: mFutureSet, Src: -1, Ctl: &futSetMsg{Ref: ref, Val: vals[0]}}, nil
	default:
		var m Message
		dec := gob.NewDecoder(bytes.NewReader(body))
		if err := dec.Decode(&m); err != nil {
			return 0, nil, fmt.Errorf("control message kind %d: %w", kind, err)
		}
		return dest, &m, nil
	}
}

// decodeInvoke fills the box m from an invoke frame's body: the element
// index and the arguments go into the slots the box brought with it.
func decodeInvoke(m *Message, body []byte, wt *wireTables, alias bool, rt *Runtime) error {
	m.Kind = mInvoke
	m.boxed = true
	r := reader{b: body}
	m.CID = CID(r.varint())
	m.Src = PE(r.varint())
	m.MID = int32(r.varint())
	m.Fut.PE = PE(r.varint())
	m.Fut.ID = r.varint()
	m.Method = r.method(wt)
	idx := r.idxInto(m.Idx[:0])
	if r.err != nil {
		return r.err // m.Idx keeps its slots for giveBack
	}
	m.Idx = idx
	rest := r.rest()
	// Typed generated decoder for bound chare types (byte-identical
	// format). A decline — signature drift, hand-built frame — falls
	// through to the generic decoder, which also reports any real error.
	if rt != nil && m.MID >= 0 {
		if meta := rt.collMeta(m.CID); meta != nil && meta.ct != nil && meta.ct.gen != nil {
			g := meta.ct.gen
			if int(m.MID) < len(g.Dec) && g.Dec[m.MID] != nil {
				if args, _, ok := g.Dec[m.MID](m.Args[:0], rest, alias); ok {
					m.Args = args
					return nil
				}
			}
		}
	}
	args, _, err := ser.DecodeArgsInto(m.Args[:0], rest, alias)
	if err != nil {
		return fmt.Errorf("invoke args: %w", err)
	}
	m.Args = args
	return nil
}

// ---- invoke boxes, runs and the node's box list ----
//
// Message ownership on the receive path. Every decoded invoke lives in an
// invokeBox, and boxes are recycled: the PE dispatch loop returns the box of
// a message it dequeued and invoked inline — the generated Dispatch case or
// the reflective table had unpacked Args into typed parameters before user
// code ran, so nothing can still see the box — and nobody else returns one.
// Keeping the pointer or one of its slices (a when-buffer, a pending list, a
// run queue, a threaded method, a re-send, a copy for a broadcast, a
// FastDispatcher or variadic method that is handed Args itself) therefore
// needs no action: that box is simply never returned, and the GC collects
// it like any other message. A missed recycle costs one object; a wrong one
// cannot happen without writing a second return.

// invokeBox bundles a decoded invoke message with a small inline index
// buffer, so one object holds the message and its (typically ≤4-dim)
// element index. m.Idx points into idx for as long as the box lives; m.Args
// keeps whatever argument slots earlier uses of the box grew.
type invokeBox struct {
	m   Message
	idx [4]int
}

func newBox() *Message {
	b := &invokeBox{}
	b.m.Idx = b.idx[:0]
	return &b.m
}

// msgRun is the unit that crosses from a decoder to a PE and back. Going in,
// it is the PE's share of one batch frame: ms holds the decoded unicasts in
// frame order and m, of the node-local kind mRun, is the one mailbox item
// that carries them (onBatch; a share of one message travels as itself). The
// PE owns the run from that push on. Coming back, ms holds the boxes the PE
// spent, emptied, and the run is a chunk of the node's box list: a decoder
// drains it and fills it again, so neither is allocated per batch.
type msgRun struct {
	m  Message
	ms []*Message
}

func newRun() *msgRun {
	r := &msgRun{}
	r.m = Message{Kind: mRun, Src: -1, Ctl: r}
	return r
}

// msgWeight is what an item adds to its mailbox's length, which counts
// messages: a run weighs what it carries.
func msgWeight(m *Message) int64 {
	if m.Kind == mRun {
		return int64(len(m.Ctl.(*msgRun).ms))
	}
	return 1
}

const (
	// boxChunk is how many boxes a PE collects outside runs before it hands
	// them over: two mutex acquisitions per boxChunk messages.
	boxChunk = 256
	// boxListChunks bounds the list; past it a PE's returns go to the GC, so
	// a burst does not pin its peak for the job's life.
	boxListChunks = 64
	// boxArgSlots bounds the argument slots a box keeps between uses.
	boxArgSlots = 16
)

// boxList is the node's free list of invoke boxes, as chunks. PEs put
// chunks (a dispatched run, or peState.spent) and decoders drain them
// (boxStock.take); both trade a whole chunk under mu and work on it
// privately. Drained chunks wait in empty for whoever fills one next.
type boxList struct {
	mu          sync.Mutex
	full, empty []*msgRun
	nFull       atomic.Int32 // len(full), so a decoder finds the list empty without mu
}

// put takes a chunk its owner is done with, boxes in it or not.
func (l *boxList) put(c *msgRun) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(c.ms) == 0 {
		if len(l.empty) < boxListChunks {
			l.empty = append(l.empty, c)
		}
	} else if len(l.full) < boxListChunks {
		l.full = append(l.full, c)
		l.nFull.Store(int32(len(l.full)))
	}
}

// get hands out a chunk with boxes in it (nil when there is none) or, to be
// filled, a drained one (a new one when there is none).
func (l *boxList) get(full bool) *msgRun {
	if full && l.nFull.Load() == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	from := &l.empty
	if full {
		from = &l.full
	}
	n := len(*from)
	if n == 0 {
		if full {
			return nil
		}
		return newRun()
	}
	c := (*from)[n-1]
	(*from)[n-1] = nil
	*from = (*from)[:n-1]
	l.nFull.Store(int32(len(l.full)))
	return c
}

// boxStock is one decoder's private stock of free boxes: the chunk it is
// draining. Not safe for concurrent use (peerIn.mu guards the per-peer
// ones). A nil stock allocates every box.
type boxStock struct {
	list *boxList
	cur  *msgRun
}

func (s *boxStock) take() *Message {
	if s == nil {
		return newBox()
	}
	if s.cur == nil || len(s.cur.ms) == 0 {
		c := s.list.get(true)
		if c == nil {
			return newBox()
		}
		if s.cur != nil {
			s.list.put(s.cur)
		}
		s.cur = c
	}
	n := len(s.cur.ms)
	m := s.cur.ms[n-1]
	s.cur.ms[n-1] = nil
	s.cur.ms = s.cur.ms[:n-1]
	return m
}

// giveBack returns a box whose decode failed: no half-filled box reaches
// anybody, and none is lost to the error.
func (s *boxStock) giveBack(m *Message) {
	if s == nil {
		return
	}
	resetBox(m, false)
	if s.cur == nil {
		s.cur = s.list.get(false)
	}
	s.cur.ms = append(s.cur.ms, m)
}

// resetBox empties a box for its next use: every reference it held is
// dropped, its index and argument slots stay (poisoned, under
// Runtime.poisonBoxes).
func resetBox(m *Message, poison bool) {
	args := m.Args[:cap(m.Args)]
	clear(args)
	if len(args) > boxArgSlots {
		args = nil
	}
	*m = Message{Idx: m.Idx[:0], Args: args[:0]}
	if poison {
		poisonBox(m)
	}
}

// What a returned box shows under Runtime.poisonBoxes.
const (
	poisonMethod = "<returned box>"
	poisonIdx    = -0x0b0cced
)

// poisonBox fills an empty box's method, index slots and argument slots with
// the sentinels (tests): whoever still looks at the box sees them.
func poisonBox(m *Message) {
	m.Method = poisonMethod
	idx := m.Idx[:cap(m.Idx)]
	for i := range idx {
		idx[i] = poisonIdx
	}
	args := m.Args[:cap(m.Args)]
	for i := range args {
		args[i] = poisonMethod
	}
}

type reader struct {
	b   []byte
	pos int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("truncated message at offset %d", r.pos)
	}
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) str() string {
	l := r.uvarint()
	if r.err != nil || l > uint64(len(r.b)-r.pos) {
		r.fail()
		return ""
	}
	s := string(r.b[r.pos : r.pos+int(l)])
	r.pos += int(l)
	return s
}

// method reads an interned method reference (see appendMethod).
func (r *reader) method(wt *wireTables) string {
	ref := r.uvarint()
	if r.err != nil {
		return ""
	}
	if ref == 0 {
		return r.str()
	}
	id := ref - 1
	if wt == nil || id >= uint64(len(wt.names)) {
		if r.err == nil {
			r.err = fmt.Errorf("unknown interned method id %d", id)
		}
		return ""
	}
	return wt.names[id]
}

func (r *reader) idx() []int { return r.idxInto(nil) }

// idxInto decodes an index into buf when it fits, so callers with an inline
// buffer (see invokeBox) avoid a per-message allocation.
func (r *reader) idxInto(buf []int) []int {
	l := r.uvarint()
	if r.err != nil || l == 0 {
		return nil
	}
	// Each index element is at least one varint byte; reject hostile counts
	// before allocating.
	if l-1 > uint64(len(r.b)-r.pos) {
		r.fail()
		return nil
	}
	n := int(l - 1)
	var out []int
	if n <= cap(buf) {
		out = buf[:n]
	} else {
		out = make([]int, n)
	}
	for i := range out {
		out[i] = int(r.varint())
	}
	if r.err != nil {
		return nil
	}
	return out
}

func (r *reader) rest() []byte { return r.b[r.pos:] }
