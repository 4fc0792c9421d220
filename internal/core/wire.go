package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"charmgo/internal/ser"
)

func init() {
	// Control payloads travel inside Message.Ctl (an interface), so their
	// concrete types must be registered with gob.
	for _, v := range []any{
		&createMsg{}, &insertMsg{}, &doneInsertingMsg{},
		&redPartialMsg{}, &migrateMsg{}, &locUpdateMsg{},
		&lbStatsMsg{}, &lbMovesMsg{}, &lbPollMsg{},
		&qdStartMsg{}, &qdProbeMsg{}, &qdReplyMsg{}, &ckptCollectMsg{},
		ckptBundle{}, &chanMsg{}, &traceReportMsg{},
		&ftCollectMsg{}, &ftBundleMsg{}, &ftBlobMsg{}, &ftRestoreMsg{},
		&ftInjectMsg{}, &ftSeqMsg{}, ftHoldingsMsg{}, ftInjectAck{},
		&introReportMsg{},
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
// (direct-copy numeric buffers, gob fallback); a future-set's body is its
// ref (PE, id) and its value as a one-element list, and mElasticAck, the
// membership protocol's uncounted future-set, shares that body. Everything
// else is gob-encoded wholesale. Both hot kinds decode into invoke boxes
// (see the ownership rule below), and both have a send path that serializes
// from the sender's stack (aggregator.sendInvoke, sendFutureSet).
//
// Aggregated (TRAM-style) traffic uses a batch frame instead:
//
//	[4B LE batchDest][ [4B LE len][frame] ... ]
//
// where batchDest is the reserved pseudo-destination -2. Every message from
// one node to another travels in a batch (aggregator.go); a standard frame
// of its own carries exit and control traffic, or sits inside a tree
// broadcast. A length word with its top bit set (repeatFlag; no sub-frame is
// that long) marks a repeat, [4B LE len|repeatFlag][argument list]: an
// mInvoke whose header (invokeHdr: dest, CID, Src, MID, Fut, method, an index
// of 1 to 4 ints) is that of the invoke sub-frame right before it, full or a
// repeat itself. A repeat never opens a batch nor follows another kind.
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

// repeatFlag marks a repeat sub-frame in its length word.
const repeatFlag = 1 << 31

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

// appendMsg appends the frame for m to dst and returns the extended slice.
// With a pooled, pre-sized dst it performs no allocations outside the gob
// fallback. wt may be nil (method names are then shipped as strings).
func appendMsg(dst []byte, dest PE, m *Message, wt *wireTables) []byte {
	switch m.Kind {
	case mInvoke:
		return appendInvoke(dst, dest, m, m.Args, wt)
	case mFutureSet, mElasticAck:
		return appendFutureSet(dst, dest, m.Kind, m.Fut, m.Args[0])
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

// appendInvoke is appendMsg for an mInvoke with arguments args, and the whole
// of its encoder. It only reads m and args — handing m to gob is what makes
// appendMsg's argument escape — so a sender that knows it has an invoke for
// another node (Proxy.invoke) keeps both on its stack and calls this through
// aggregator.sendInvoke.
func appendInvoke(dst []byte, dest PE, m *Message, args []any, wt *wireTables) []byte {
	dst = appendFrameHdr(dst, dest, mInvoke)
	dst = binary.AppendVarint(dst, int64(m.CID))
	dst = binary.AppendVarint(dst, int64(m.Src))
	dst = binary.AppendVarint(dst, int64(m.MID))
	dst = binary.AppendVarint(dst, int64(m.Fut.PE))
	dst = binary.AppendVarint(dst, m.Fut.ID)
	dst = appendMethod(dst, m.Method, wt)
	dst = appendIdx(dst, m.Idx)
	return appendInvokeArgs(dst, m, args)
}

// appendFutureSet is appendMsg for a future-set (or an elastic ack, which
// shares its frame) of ref with value v, and the whole of its encoder: the
// ref's PE and id as varints, then v as a one-element argument list. Like
// appendInvoke it only reads what it is handed, so sendFutureSet keeps its
// Message on its stack (aggregator.sendFutureSet).
func appendFutureSet(dst []byte, dest PE, kind msgKind, ref FutureRef, v any) []byte {
	dst = appendFrameHdr(dst, dest, kind)
	dst = binary.AppendVarint(dst, int64(ref.PE))
	dst = binary.AppendVarint(dst, ref.ID)
	dst, err := ser.AppendArgs(dst, []any{v})
	if err != nil {
		panic(fmt.Sprintf("core: cannot serialize future value: %v", err))
	}
	return dst
}

// appendInvokeArgs is appendInvoke's argument half, and the whole body of a
// repeat sub-frame. A decoded invoke sent on with its bytes kept (m.raw)
// goes as it came.
func appendInvokeArgs(dst []byte, m *Message, args []any) []byte {
	if len(m.raw) > 0 {
		return append(dst, m.raw...)
	}
	dst, err := ser.AppendArgs(dst, args)
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

// decodeFrame is the runtime's ingress decoder: for an invoke frame it
// additionally resolves whether the method's entry-method handle reads its
// parameters off the argument bytes, which the box then keeps, and it takes
// invoke boxes from the caller's stock (nil: a new box per invoke).
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
	case mFutureSet, mElasticAck:
		m := boxes.take()
		if err := decodeFutureSet(m, kind, body, alias); err != nil {
			boxes.giveBack(m)
			return 0, nil, err
		}
		return dest, m, nil
	default:
		var m Message
		dec := gob.NewDecoder(bytes.NewReader(body))
		if err := dec.Decode(&m); err != nil {
			return 0, nil, fmt.Errorf("control message kind %d: %w", kind, err)
		}
		return dest, &m, nil
	}
}

// decodeFutureSet fills the box m from a future-set's (or an elastic ack's)
// body: the ref goes to m.Fut and the value into the box's first argument slot.
func decodeFutureSet(m *Message, kind msgKind, body []byte, alias bool) error {
	m.Kind, m.Src, m.boxed = kind, -1, true
	r := reader{b: body}
	m.Fut.PE = PE(r.varint())
	m.Fut.ID = r.varint()
	if r.err != nil {
		return r.err
	}
	vals, _, err := ser.DecodeArgsInto(m.Args[:0], r.rest(), alias)
	if err != nil || len(vals) != 1 {
		return fmt.Errorf("future value: %d values, %v", len(vals), err)
	}
	m.Args = vals
	return nil
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
	keep := false
	if rt != nil && m.MID >= 0 {
		if meta := rt.collMeta(m.CID); meta != nil && meta.ct != nil {
			keep = meta.ct.typed.keeps(m.MID)
		}
	}
	return decodeInvokeArgs(m, r.rest(), alias, keep)
}

// decodeInvokeArgs is decodeInvoke's argument half, and the whole decoder of
// a repeat sub-frame's body. With keep (the handle reads its parameters off
// the encoded list, binding.keeps) the bytes go to m.raw; otherwise ser's
// decoder reads them into the box's argument slots and reports any error.
func decodeInvokeArgs(m *Message, data []byte, alias, keep bool) error {
	if keep && len(data) > 0 {
		m.raw = append(m.raw[:0], data...)
		return nil
	}
	args, _, err := ser.DecodeArgsInto(m.Args[:0], data, alias)
	if err != nil {
		return fmt.Errorf("invoke args: %w", err)
	}
	m.Args = args
	return nil
}

// invokeHdr is the header a repeat sub-frame carries over: everything
// appendInvoke writes before the arguments, and (receiver) whether its
// invokes keep their argument bytes. Only an index of 1 to 4 ints is carried
// over; n == 0 means there is no header to carry.
type invokeHdr struct {
	dest, src PE
	mid       int32
	cid       CID
	fut       FutureRef
	method    string
	keep      bool
	n         int // len(idx) in use
	idx       [4]int
}

// set makes the header of m, an invoke to dest, the one to carry over.
func (h *invokeHdr) set(dest PE, m *Message) {
	h.dest, h.src, h.mid, h.cid, h.fut, h.method = dest, m.Src, m.MID, m.CID, m.Fut, m.Method
	if h.n = copy(h.idx[:], m.Idx); h.n < len(m.Idx) {
		h.n = 0
	}
}

// matches reports whether an invoke of m to dest has header h.
func (h *invokeHdr) matches(dest PE, m *Message) bool {
	return h.n != 0 && dest == h.dest && m.Src == h.src && m.MID == h.mid && m.CID == h.cid &&
		m.Fut == h.fut && m.Method == h.method && slices.Equal(m.Idx, h.idx[:h.n])
}

// batchReader decodes a batch frame's sub-frames one by one, carrying each
// full invoke's header over to the repeats behind it. It is onBatch's
// decoder, apart from the runtime so that hostile batches can be fuzzed.
type batchReader struct {
	body   []byte // the sub-frames not yet read
	wt     *wireTables
	rt     *Runtime // resolves which invokes keep their argument bytes; nil: none
	boxes  *boxStock
	last   invokeHdr // the header a repeat carries over
	repeat bool      // the sub-frame next returned last was a repeat
}

// next decodes the next sub-frame into a message, nil at the end of the
// batch. A truncated length word, a length past the end of the batch, a
// repeat with no invoke right before it and a sub-frame that does not decode
// are errors.
func (b *batchReader) next() (PE, *Message, error) {
	if len(b.body) == 0 {
		return 0, nil, nil
	}
	if len(b.body) < 4 {
		return 0, nil, errors.New("truncated batch frame")
	}
	n := binary.LittleEndian.Uint32(b.body)
	b.repeat = n&repeatFlag != 0
	n &^= repeatFlag
	if uint64(n) > uint64(len(b.body)-4) {
		return 0, nil, fmt.Errorf("bad sub-frame length %d", n)
	}
	sub := b.body[4 : 4+n : 4+n]
	b.body = b.body[4+n:]
	if !b.repeat {
		b.last.n = 0
		dest, m, err := decodeMsgFull(sub, b.wt, false, b.rt, b.boxes)
		if err == nil && m.Kind == mInvoke {
			b.last.set(dest, m)
			b.last.keep = len(m.raw) > 0
		}
		return dest, m, err
	}
	if b.last.n == 0 {
		return 0, nil, errors.New("repeat sub-frame with no invoke header before it")
	}
	m, h := b.boxes.take(), &b.last // filled as decodeInvoke would have
	m.Kind, m.boxed = mInvoke, true
	m.Src, m.MID, m.CID, m.Fut, m.Method = h.src, h.mid, h.cid, h.fut, h.method
	m.Idx = append(m.Idx[:0], h.idx[:h.n]...)
	if err := decodeInvokeArgs(m, sub, false, h.keep); err != nil {
		b.boxes.giveBack(m)
		return 0, nil, err
	}
	return b.last.dest, m, nil
}

// ---- invoke boxes, runs and the node's box list ----
//
// Message ownership. Every decoded invoke lives in an invokeBox, and so does
// every same-node unicast invoke (Proxy.invoke fills a box from the issuing
// PE's stock); boxes are recycled. So does every future-set, decoded or
// same-node (sendFutureSet takes a box from the sending PE's stock, a new
// one when it does not know that PE): its ref is in Fut, its value in Args[0].
// A decoded invoke for a handle whose parameters are all fixed-size keeps
// its argument bytes (raw), not a list. An invoke's box is returned only
// right after its entry method ran inline with its arguments unpacked into
// typed parameters (the typed handle, its wire call or the reflective path
// did that before user code ran, so nothing the method did can still see
// them), a future-set's once futureSet or extComplete has taken its value
// (handle), and only by
//   - the PE dispatch loop, for the message it dequeued;
//   - recheck, for a when-buffered message it has just taken out of el.buf,
//     the only reference left: deliverOrBuffer buffers the message being
//     dispatched without marking it spent, or one from a pending list
//     already dropped, and only recheck and migrateOut read el.buf.
// Keeping the pointer or one of its slices (a pending list, a threaded
// method, a re-send, which sends kept bytes as they came, a copy for a
// broadcast, which decodes them into slots of its own, a variadic method that
// is handed Args itself) therefore needs no action: that box is simply never
// returned, and the GC collects it like any other message. A missed recycle
// costs one object; a wrong one cannot happen without writing a third return.

// invokeBox bundles an invoke or future-set message with a small inline
// index buffer, so one object holds the message and its (typically ≤4-dim)
// element index. m.Idx points into idx for as long as the box lives; m.Args
// and m.raw keep whatever capacity earlier uses of the box grew.
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
	fresh       atomic.Int64 // boxes a stock made because the list had none (tests)
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

// boxStock is one decoder's or one PE's private stock of free boxes: the
// chunk it is draining. Not safe for concurrent use (peerIn.mu guards the
// per-peer ones, sendBoxes.lock a PE's). A nil stock allocates every box.
type boxStock struct {
	list *boxList
	cur  *msgRun
}

// sendBoxes is a PE's stock for same-node invokes through proxies bound to it,
// and its try-lock: a goroutine that is not the PE's, holding such a proxy,
// finds it taken and makes a new box instead of waiting.
type sendBoxes struct {
	lock  atomic.Bool
	stock boxStock
}

func (s *boxStock) take() *Message {
	if s == nil {
		return newBox()
	}
	if s.cur == nil || len(s.cur.ms) == 0 {
		c := s.list.get(true)
		if c == nil {
			s.list.fresh.Add(1)
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
// dropped, its index and argument slots and byte capacity stay (poisoned,
// under Runtime.poisonBoxes).
func resetBox(m *Message, poison bool) {
	args := m.Args[:cap(m.Args)]
	clear(args)
	if len(args) > boxArgSlots {
		args = nil
	}
	*m = Message{Idx: m.Idx[:0], Args: args[:0], raw: m.raw[:0]}
	if poison {
		poisonBox(m)
	}
}

// What a returned box shows under Runtime.poisonBoxes.
const (
	poisonMethod = "<returned box>"
	poisonIdx    = -0x0b0cced
)

// poisonBox fills an empty box's method, index, argument slots and kept
// bytes with the sentinels (tests): whoever still looks at the box sees them.
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
	raw := m.raw[:cap(m.raw)]
	for i := range raw {
		raw[i] = 0xff // an argument count that never ends
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
