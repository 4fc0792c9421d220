package core

import (
	"testing"
	"testing/quick"
)

// encodeMsg serializes a message into a fresh frame without interning.
// The runtime uses appendMsg with a pooled buffer and its tables.
func encodeMsg(dest PE, m *Message) []byte {
	return appendMsg(nil, dest, m, nil)
}

// decodeMsg decodes a frame without interning tables.
func decodeMsg(frame []byte) (PE, *Message, error) {
	return decodeMsgWT(frame, nil)
}

func decodeMsgWT(frame []byte, wt *wireTables) (PE, *Message, error) {
	return decodeMsgFull(frame, wt, false, nil, nil)
}

func roundtripMsg(t *testing.T, dest PE, m *Message) (PE, *Message) {
	t.Helper()
	frame := encodeMsg(dest, m)
	d, out, err := decodeMsg(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return d, out
}

func TestWireInvokeRoundtrip(t *testing.T) {
	m := &Message{
		Kind: mInvoke, CID: 42, Idx: []int{3, 1, 4}, MID: 7, Method: "RecvGhost",
		Src: 5, Fut: FutureRef{PE: 2, ID: 99},
		Args: []any{1, int64(-5), 2.5, "hi", []float64{1, 2, 3}, true, nil},
	}
	d, out := roundtripMsg(t, 9, m)
	if d != 9 {
		t.Errorf("dest = %d", d)
	}
	if out.CID != 42 || out.MID != 7 || out.Method != "RecvGhost" || out.Src != 5 {
		t.Errorf("header mismatch: %+v", out)
	}
	if !idxEqual(out.Idx, m.Idx) {
		t.Errorf("idx = %v", out.Idx)
	}
	if out.Fut != m.Fut {
		t.Errorf("fut = %v", out.Fut)
	}
	if len(out.Args) != len(m.Args) {
		t.Fatalf("args = %v", out.Args)
	}
	if out.Args[0] != 1 || out.Args[1] != int64(-5) || out.Args[2] != 2.5 ||
		out.Args[3] != "hi" || out.Args[5] != true || out.Args[6] != nil {
		t.Errorf("args = %#v", out.Args)
	}
	fs := out.Args[4].([]float64)
	if len(fs) != 3 || fs[2] != 3 {
		t.Errorf("slice arg = %v", fs)
	}
}

func TestWireBroadcastNilIdx(t *testing.T) {
	m := &Message{Kind: mInvoke, CID: 1, Idx: nil, MID: -1, Method: "M", Src: -1}
	d, out := roundtripMsg(t, -1, m)
	if d != -1 {
		t.Errorf("broadcast dest = %d", d)
	}
	if out.Idx != nil {
		t.Errorf("broadcast idx = %v, want nil", out.Idx)
	}
}

func TestWireFutureSetRoundtrip(t *testing.T) {
	m := &Message{Kind: mFutureSet, Fut: FutureRef{PE: 3, ID: 12}, Args: []any{[]float64{9, 8}}}
	_, out := roundtripMsg(t, 3, m)
	if out.Kind != mFutureSet || out.Fut != (FutureRef{PE: 3, ID: 12}) || !out.boxed || len(out.Args) != 1 {
		t.Fatalf("decoded %v: kind %d, ref %v, boxed %v, %d values", out, out.Kind, out.Fut, out.boxed, len(out.Args))
	}
	if v := out.Args[0].([]float64); v[0] != 9 || v[1] != 8 {
		t.Errorf("val = %v", out.Args[0])
	}
}

func TestWireControlGobRoundtrip(t *testing.T) {
	m := &Message{Kind: mCreate, CID: 5, Src: 1, Ctl: &createMsg{
		CID: 5, Kind: ckArray, Type: "Block", Dims: []int{4, 4}, Creator: 1,
		Args: []any{3, "x"},
	}}
	_, out := roundtripMsg(t, 2, m)
	cm := out.Ctl.(*createMsg)
	if cm.Type != "Block" || cm.Dims[1] != 4 || cm.Args[1] != "x" {
		t.Errorf("create = %+v", cm)
	}
	m2 := &Message{Kind: mLBMoves, CID: 5, Ctl: &lbMovesMsg{Moves: map[string]PE{"k": 3}, AtSync: true}}
	_, out2 := roundtripMsg(t, 0, m2)
	if lm := out2.Ctl.(*lbMovesMsg); out2.CID != 5 || lm.Moves["k"] != 3 || !lm.AtSync {
		t.Errorf("moves = %+v", out2.Ctl)
	}
}

func TestWireCorruptFramesFailGracefully(t *testing.T) {
	valid := encodeMsg(1, &Message{Kind: mInvoke, CID: 1, Idx: []int{0}, MID: 0, Method: "M",
		Args: []any{[]float64{1, 2}}})
	cases := [][]byte{
		nil,
		{1, 2, 3},
		valid[:6],
		valid[:len(valid)-3],
		append(append([]byte{}, valid[:5]...), 0xFF, 0xFF, 0xFF),
	}
	for i, frame := range cases {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("case %d: decodeMsg panicked: %v", i, r)
				}
			}()
			if _, _, err := decodeMsg(frame); err == nil && i != 4 {
				t.Errorf("case %d: corrupt frame decoded without error", i)
			}
		}()
	}
	// flipping the kind byte to garbage must error, not panic
	bad := append([]byte{}, valid...)
	bad[4] = 200
	if _, _, err := decodeMsg(bad); err == nil {
		t.Error("unknown-kind frame decoded without error")
	}
}

// Property: invoke messages with arbitrary scalar args round-trip.
func TestWireInvokeProperty(t *testing.T) {
	f := func(cid int32, mid int32, method string, src int32, i int, f64 float64, s string, b bool, fs []float64) bool {
		if mid < 0 {
			mid = -mid
		}
		m := &Message{
			Kind: mInvoke, CID: CID(cid), Idx: []int{int(src % 7)}, MID: mid % 100,
			Method: method, Src: PE(src % 64), Args: []any{i, f64, s, b, fs},
		}
		if m.Src < 0 {
			m.Src = -m.Src
		}
		frame := encodeMsg(PE(src%64), m)
		_, out, err := decodeMsg(frame)
		if err != nil {
			return false
		}
		if out.CID != m.CID || out.MID != m.MID || out.Method != method {
			return false
		}
		if out.Args[0] != i || out.Args[2] != s || out.Args[3] != b {
			return false
		}
		got := out.Args[4].([]float64)
		if len(got) != len(fs) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIdxKeyRoundtripProperty(t *testing.T) {
	f := func(idx []int16) bool {
		in := make([]int, len(idx))
		for i, v := range idx {
			in[i] = int(v)
		}
		out := keyIdx(idxKey(in))
		if len(in) == 0 {
			return len(out) == 0
		}
		return idxEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLinearizeRoundtripProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		dims := []int{int(a)%5 + 1, int(b)%5 + 1, int(c)%5 + 1}
		n := numElems(dims)
		for pos := 0; pos < n; pos++ {
			idx := delinearize(pos, dims)
			if linearize(idx, dims) != pos {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
