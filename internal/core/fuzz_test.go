package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// fuzzFrameSeeds builds representative frames of each wire shape: interned
// and non-interned invokes, a future-set, and a gob control frame.
func fuzzFrameSeeds(wt *wireTables) [][]byte {
	return [][]byte{
		encodeMsg(3, &Message{
			Kind: mInvoke, CID: 7, Src: 1, MID: 2, Fut: FutureRef{PE: 1, ID: 5},
			Method: "Step", Idx: []int{4, 5},
			Args: []any{42, "x", []float64{1, 2.5}, []byte{9, 8}},
		}),
		appendMsg(nil, 0, &Message{
			Kind: mInvoke, CID: 1, Src: 0, MID: -1, Method: "Add",
			Args: []any{int64(9), true, nil},
		}, wt),
		encodeMsg(-1, &Message{Kind: mFutureSet, Src: -1,
			Ctl: &futSetMsg{Ref: FutureRef{PE: 2, ID: 11}, Val: 3.5}}),
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
			if m.Kind == mInvoke {
				stock.giveBack(m)
				stock.giveBack(m2)
			}
		}
	})
}

// TestGenerateFrameCorpus writes the seed frames as committed corpus files.
// Run with CHARMGO_GEN_CORPUS=1 after changing the wire format; otherwise it
// verifies the committed corpus is present and well-formed.
func TestGenerateFrameCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeFrame")
	seeds := fuzzFrameSeeds(fuzzWireTables())
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
		return
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) < len(seeds) {
		t.Fatalf("committed fuzz corpus missing in %s (regenerate with CHARMGO_GEN_CORPUS=1): %v", dir, err)
	}
}
