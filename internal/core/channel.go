package core

import "fmt"

// Channels give threaded entry methods direct-style, ordered, pairwise
// communication (charm4py's Channel API): each endpoint creates a Channel
// naming the peer element; Send enqueues a value to the peer, Recv blocks
// the calling thread (never the PE) until the next value in send order is
// available. Messages may arrive out of order through location forwarding;
// per-stream sequence numbers restore order.
//
// Channels are identified by (peer element, port); the default port is 0,
// and distinct ports give independent ordered streams between the same
// pair. Receive-side state lives in the runtime's element record and does
// not survive migration — establish channels after any planned migration,
// or at AtSync boundaries.

type chanMsg struct {
	SrcCID CID
	SrcIdx []int
	Port   int
	Seq    int64
	Val    any
}

// chanStream is the receive-side state of one incoming stream.
type chanStream struct {
	buf      map[int64]any
	nextRecv int64
	waiter   *emThread
}

func streamKey(cid CID, idx []int, port int) string {
	return fmt.Sprintf("%d/%s/%d", cid, idxKey(idx), port)
}

// Channel is one endpoint of a pairwise stream. Keep it in a local variable
// of a threaded entry method (the typical charm4py pattern) or in chare
// state on a chare that does not migrate.
type Channel struct {
	Peer Proxy
	Port int

	ec      *elemCtx
	sendSeq int64
}

// NewChannel creates this chare's endpoint of a channel to the peer element
// (an indexed proxy). Both sides construct their own endpoint; no handshake
// is needed.
func NewChannel(self *Chare, peer Proxy, port ...int) *Channel {
	if peer.Elem == nil {
		panic("core: NewChannel requires an element proxy (use At)")
	}
	pt := 0
	if len(port) > 0 {
		pt = port[0]
	}
	return &Channel{Peer: peer, Port: pt, ec: self.ctx()}
}

// Send delivers v to the peer's endpoint in order. It is asynchronous.
func (ch *Channel) Send(v any) {
	if ch.ec == nil {
		panic("core: Send on unattached channel (create it with NewChannel)")
	}
	p := ch.ec.p
	seq := ch.sendSeq
	ch.sendSeq++
	m := &Message{
		Kind: mChanMsg, CID: ch.Peer.CID, Idx: ch.Peer.Elem, Src: p.pe,
		Ctl: &chanMsg{
			SrcCID: ch.ec.el.cid, SrcIdx: ch.ec.el.idx,
			Port: ch.Port, Seq: seq, Val: v,
		},
	}
	p.rt.send(p.rt.destPE(m.CID, m.Idx, p.rt.collMeta(m.CID)), m)
}

// Recv returns the next value from the peer in send order, suspending the
// calling threaded entry method until it is available.
func (ch *Channel) Recv() any {
	if ch.ec == nil {
		panic("core: Recv on unattached channel")
	}
	p := ch.ec.p
	el := ch.ec.el
	st := el.stream(streamKey(ch.Peer.CID, ch.Peer.Elem, ch.Port))
	for {
		if v, ok := st.buf[st.nextRecv]; ok {
			delete(st.buf, st.nextRecv)
			st.nextRecv++
			return v
		}
		if p.curThread == nil {
			panic("core: Channel.Recv requires a threaded entry method")
		}
		if st.waiter != nil {
			panic("core: concurrent Recv on one channel")
		}
		st.waiter = p.curThread
		p.suspendCur()
	}
}

func (el *element) stream(key string) *chanStream {
	if el.chans == nil {
		el.chans = map[string]*chanStream{}
	}
	st := el.chans[key]
	if st == nil {
		st = &chanStream{buf: map[int64]any{}}
		el.chans[key] = st
	}
	return st
}

// chanDeliver runs on the destination element's scheduler.
func (p *peState) chanDeliver(el *element, cm *chanMsg) {
	st := el.stream(streamKey(cm.SrcCID, cm.SrcIdx, cm.Port))
	st.buf[cm.Seq] = cm.Val
	if st.waiter != nil {
		if _, ready := st.buf[st.nextRecv]; ready {
			th := st.waiter
			st.waiter = nil
			p.resumeThread(th)
		}
	}
}
