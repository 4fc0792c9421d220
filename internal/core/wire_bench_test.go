package core

import (
	"testing"

	"charmgo/internal/transport"
)

// benchInvoke is a representative fine-grained invoke (small scalar args).
func benchInvoke() *Message {
	return &Message{Kind: mInvoke, CID: 7, Idx: []int{12}, MID: 3, Method: "RecvGhost",
		Src: 2, Fut: FutureRef{PE: -1}, Args: []any{41, 2.5}}
}

// BenchmarkEncodeMsgInvoke measures the hot serialization path. "pooled"
// is what the runtime does since the zero-copy wire path: appendMsg into a
// recycled transport frame with method interning. "fresh" is the seed
// behaviour (new buffer per message, method as string). Seed baseline:
// ~315 ns/op, 288 B/op, 6 allocs/op.
func BenchmarkEncodeMsgInvoke(b *testing.B) {
	m := benchInvoke()
	wt := testTables("RecvGhost")
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf := transport.GetBuf()
			buf = appendMsg(buf, 9, m, wt)
			transport.PutBuf(buf)
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = encodeMsg(9, m)
		}
	})
}

func BenchmarkDecodeMsgInvoke(b *testing.B) {
	wt := testTables("RecvGhost")
	frame := appendMsg(nil, 9, benchInvoke(), wt)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := decodeMsgWT(frame, wt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMailbox(b *testing.B) {
	b.Run("push-pop", func(b *testing.B) {
		mb := newMailbox()
		m := &Message{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mb.push(m)
			mb.tryPop()
		}
	})
	b.Run("pushFront-pop", func(b *testing.B) {
		mb := newMailbox()
		m := &Message{}
		// Keep a standing queue so pushFront exercises a non-empty ring (the
		// seed implementation re-allocated the whole queue here).
		for i := 0; i < 1024; i++ {
			mb.push(m)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mb.pushFront(m)
			mb.tryPop()
		}
	})
	b.Run("run-64", func(b *testing.B) {
		mb := newMailbox()
		r := runOf(0, 64)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mb.push(&r.m)
			mb.tryPop()
		}
	})
}
