package core

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
)

// fuzzFrameSeeds builds representative frames of each wire shape: interned
// and non-interned invokes, a future-set, and a gob control frame. The second
// is the one invoke that still travels outside a batch: a collection
// broadcast addressed to -1, as a tree broadcast embeds it.
func fuzzFrameSeeds(wt *wireTables) [][]byte {
	return [][]byte{
		encodeMsg(3, &Message{
			Kind: mInvoke, CID: 7, Src: 1, MID: 2, Fut: FutureRef{PE: 1, ID: 5},
			Method: "Step", Idx: []int{4, 5},
			Args: []any{42, "x", []float64{1, 2.5}, []byte{9, 8}},
		}),
		appendMsg(nil, -1, &Message{
			Kind: mInvoke, CID: 1, Src: 0, MID: -1, Method: "Add",
			Args: []any{int64(9), true, nil},
		}, wt),
		encodeMsg(-1, &Message{Kind: mFutureSet, Src: -1,
			Fut: FutureRef{PE: 2, ID: 11}, Args: []any{3.5}}),
		encodeMsg(0, &Message{Kind: mPing, Src: 0}),
		{0, 0, 0},             // shorter than a header
		{1, 0, 0, 0, 0xff, 1}, // unknown kind
	}
}

func fuzzWireTables() *wireTables {
	return &wireTables{
		names: []string{"Add", "Step"},
		ids:   map[string]int32{"Add": 0, "Step": 1},
	}
}

// FuzzDecodeFrame hardens the wire decoder against hostile frames: no input
// may panic or over-read, and any frame that decodes as an invoke or
// future-set must survive a re-encode/re-decode roundtrip with its header
// fields intact (the same property Runtime.onFrame relies on). Invokes decode
// into recycled boxes, as at ingress: a frame that fails half way must leave
// its box fit for the next one.
func FuzzDecodeFrame(f *testing.F) {
	wt := fuzzWireTables()
	for _, seed := range fuzzFrameSeeds(wt) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		if len(frame) > 1<<16 {
			t.Skip()
		}
		stock := &boxStock{list: &boxList{}}
		for _, tables := range []*wireTables{nil, wt} {
			dest, m, err := decodeMsgFull(frame, tables, false, nil, stock)
			if err != nil {
				continue
			}
			if m.Kind != mInvoke && m.Kind != mFutureSet {
				// Control kinds decode through gob; re-encoding arbitrary
				// decoded payloads is not required to roundtrip (maps).
				continue
			}
			re := appendMsg(nil, dest, m, tables)
			dest2, m2, err := decodeMsgFull(re, tables, false, nil, stock)
			if err != nil {
				t.Fatalf("re-decode of re-encoded frame failed: %v (orig %x)", err, frame)
			}
			if dest2 != dest || m2.Kind != m.Kind || m2.CID != m.CID ||
				m2.MID != m.MID || m2.Method != m.Method || m2.Src != m.Src ||
				m2.Fut != m.Fut || !idxEqual(m2.Idx, m.Idx) || len(m2.Args) != len(m.Args) {
				t.Fatalf("roundtrip mismatch:\n  first  %d %v\n  second %d %v", dest, m, dest2, m2)
			}
			if m.boxed {
				stock.giveBack(m)
				stock.giveBack(m2)
			}
		}
	})
}

// fuzzBatchSeeds builds batch frame bodies (what follows the batchDest word):
// a full invoke and two repeats of it, a repeat first, a repeat after a
// control sub-frame, and a repeat flag on a length that runs past the end.
func fuzzBatchSeeds(wt *wireTables) [][]byte {
	sub := func(b []byte, flag uint32, body []byte) []byte {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(body))|flag)
		return append(b, body...)
	}
	full := appendMsg(nil, 3, &Message{Kind: mInvoke, CID: 7, Src: 1, MID: 1,
		Fut: FutureRef{PE: 1, ID: 5}, Method: "Step", Idx: []int{4, 5}, Args: []any{42, "x"}}, wt)
	args := appendInvokeArgs(nil, &Message{}, []any{43, "y"})
	ctl := encodeMsg(0, &Message{Kind: mPing, Src: 0})
	return [][]byte{
		sub(sub(sub(nil, 0, full), repeatFlag, args), repeatFlag, args),
		sub(sub(nil, repeatFlag, args), 0, full),
		sub(sub(sub(nil, 0, full), 0, ctl), repeatFlag, args),
		append(sub(nil, 0, full), 9, 0, 0, 0x80, 43),
	}
}

// FuzzDecodeBatch hardens the batch decoder (batchReader) the same way: no
// input may panic or read past its sub-frame (the batch is clipped to its
// length, as each sub-frame is to its own), and every repeat it accepts
// decodes to the header of the full invoke right before it.
func FuzzDecodeBatch(f *testing.F) {
	wt := fuzzWireTables()
	for _, seed := range fuzzBatchSeeds(wt) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 1<<16 {
			t.Skip()
		}
		stock := &boxStock{list: &boxList{}}
		b := batchReader{body: slices.Clip(body), wt: wt, boxes: stock}
		var last *Message // the last full invoke, if the sub-frame before was one or a repeat
		var lastDest PE
		for {
			dest, m, err := b.next()
			if err != nil || m == nil {
				return
			}
			switch {
			case b.repeat:
				if last == nil {
					t.Fatalf("a repeat decoded with no full invoke before it (batch %x)", body)
				}
				if dest != lastDest || m.Kind != mInvoke || m.CID != last.CID || m.Src != last.Src ||
					m.MID != last.MID || m.Fut != last.Fut || m.Method != last.Method || !idxEqual(m.Idx, last.Idx) {
					t.Fatalf("repeat decoded as %d %v, the invoke before it was %d %v", dest, m, lastDest, last)
				}
				stock.giveBack(m)
			case m.Kind == mInvoke:
				last, lastDest = m.copyOf(), dest
				last.Idx = slices.Clone(m.Idx) // the box's slots go back with it
				stock.giveBack(m)
			default:
				last = nil
			}
		}
	})
}

// TestGenerateFrameCorpus writes the seed frames and batches as committed
// corpus files. Run with CHARMGO_GEN_CORPUS=1 after changing the wire format;
// otherwise it verifies the committed corpora are present and well-formed.
func TestGenerateFrameCorpus(t *testing.T) {
	wt := fuzzWireTables()
	for target, seeds := range map[string][][]byte{
		"FuzzDecodeFrame": fuzzFrameSeeds(wt),
		"FuzzDecodeBatch": fuzzBatchSeeds(wt),
	} {
		dir := filepath.Join("testdata", "fuzz", target)
		if os.Getenv("CHARMGO_GEN_CORPUS") != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for i, seed := range seeds {
				name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
				body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
				if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) < len(seeds) {
			t.Fatalf("committed fuzz corpus missing in %s (regenerate with CHARMGO_GEN_CORPUS=1): %v", dir, err)
		}
	}
}
