package core

// Tests for the generated-binding registry hook using a hand-written
// GenBinding shaped exactly like `charmgo gen` output. The generator's own
// emission is tested in internal/gen; here we prove the runtime side:
// attachment at Register in Compiled mode only, typed codec use on the wire
// path, coercion fallback, and stale-binding detection.

import (
	"sync/atomic"
	"testing"

	"charmgo/internal/ser"
)

type genPing struct {
	Chare
	total int
	last  string
}

func (g *genPing) Add(x int)       { g.total += x }
func (g *genPing) Note(s string)   { g.last = s }
func (g *genPing) Sum() int        { return g.total }
func (g *genPing) Done(f Future)   { f.Send(g.total) }
func (g *genPing) Mixed(x float64) { g.total += int(x) }

var genPingHits atomic.Int64

func genPingBinding() *GenBinding {
	// Methods sorted: Add(0) Done(1) Mixed(2) Note(3) Sum(4).
	return &GenBinding{
		Type:    "genPing",
		Methods: []string{"Add", "Done", "Mixed", "Note", "Sum"},
		Dispatch: func(obj any, id int, args []any) (any, bool) {
			self, ok := obj.(*genPing)
			if !ok {
				return nil, false
			}
			genPingHits.Add(1)
			switch id {
			case 0:
				a0, ok := args[0].(int)
				if !ok {
					genPingHits.Add(-1)
					return nil, false
				}
				self.Add(a0)
				return nil, true
			case 1:
				a0, ok := args[0].(Future)
				if !ok {
					genPingHits.Add(-1)
					return nil, false
				}
				self.Done(a0)
				return nil, true
			case 2:
				a0, ok := args[0].(float64)
				if !ok {
					genPingHits.Add(-1)
					return nil, false
				}
				self.Mixed(a0)
				return nil, true
			case 3:
				a0, ok := args[0].(string)
				if !ok {
					genPingHits.Add(-1)
					return nil, false
				}
				self.Note(a0)
				return nil, true
			case 4:
				return self.Sum(), true
			}
			genPingHits.Add(-1)
			return nil, false
		},
		Enc: []func([]byte, []any) ([]byte, bool){
			func(dst []byte, args []any) ([]byte, bool) {
				a0, ok := args[0].(int)
				if !ok {
					return dst, false
				}
				dst = ser.AppendCount(dst, 1)
				return ser.AppendInt(dst, a0), true
			},
			nil, nil, nil, nil,
		},
		Dec: []func([]any, []byte, bool) ([]any, int, bool){
			func(dst []any, data []byte, alias bool) ([]any, int, bool) {
				d := ser.NewDec(data, alias)
				if d.Count() != 1 {
					return dst, 0, false
				}
				a0 := d.Int()
				if !d.Ok() {
					return dst, 0, false
				}
				return append(dst, a0), d.Used(), true
			},
			nil, nil, nil, nil,
		},
	}
}

func init() {
	RegisterGenerated("charmgo/internal/core.genPing", genPingBinding())
}

func testGenDispatch(t *testing.T, mode DispatchMode, force bool) {
	before := genPingHits.Load()
	runJob(t, Config{PEs: 2, Dispatch: mode, ForceSerialize: force}, func(rt *Runtime) {
		rt.Register(&genPing{})
	}, func(self *Chare) {
		p := self.NewChare(&genPing{}, 1)
		p.Call("Add", 4)
		p.Call("Note", "hi")
		p.Call("Mixed", 2) // int where float64 is expected: binding declines
		f := self.CreateFuture()
		p.Call("Done", f)
		if got := f.Get(); got != 6 {
			t.Errorf("total = %v, want 6", got)
		}
		if got := p.CallRet("Sum").Get(); got != 6 {
			t.Errorf("Sum = %v, want 6", got)
		}
	})
	// Compiled: Add, Note, Done, Sum go through the binding; Mixed needs
	// int->float64 coercion, declines, and is delivered by reflection (not
	// counted). Interpreted: the binding is never attached.
	want := int64(4)
	if mode == DynamicDispatch {
		want = 0
	}
	if hits := genPingHits.Load() - before; hits != want {
		t.Errorf("generated dispatch hits = %d, want %d", hits, want)
	}
}

func TestGenBindingDynamic(t *testing.T)    { testGenDispatch(t, DynamicDispatch, false) }
func TestGenBindingStatic(t *testing.T)     { testGenDispatch(t, StaticDispatch, false) }
func TestGenBindingSerialized(t *testing.T) { testGenDispatch(t, StaticDispatch, true) }

// Interpreted mode is the paper's CharmPy: a bound chare type over the wire
// codec still gets no binding. Every call travels by name, dispatches by
// reflection, and int->float64 coercion delivers.
func TestInterpretedIgnoresBindings(t *testing.T) {
	var byID, byName atomic.Int64
	before := genPingHits.Load()
	runJob(t, Config{PEs: 2, Dispatch: DynamicDispatch, ForceSerialize: true}, func(rt *Runtime) {
		rt.Register(&genPing{})
		rt.holdEM = func(p *peState, m *Message) {
			switch {
			case m.Method == "Run": // the main chare
			case m.MID >= 0 || m.gen != nil:
				byID.Add(1)
			default:
				byName.Add(1)
			}
		}
	}, func(self *Chare) {
		p := self.NewChare(&genPing{}, 1)
		p.Call("Add", 4)
		p.Call("Mixed", 2)
		p.Call("Note", "hi")
		f := self.CreateFuture()
		p.Call("Done", f)
		if got := f.Get(); got != 6 {
			t.Errorf("total = %v, want 6", got)
		}
	})
	if hits := genPingHits.Load() - before; hits != 0 {
		t.Errorf("generated dispatch hits = %d in Interpreted mode, want 0", hits)
	}
	if byID.Load() != 0 || byName.Load() != 4 {
		t.Errorf("invokes by id = %d, by name = %d; want 0 and 4", byID.Load(), byName.Load())
	}
}

// A binding whose method list drifted from the source must fail loudly at
// Register, not misdispatch by id.
type genStale struct{ Chare }

func (g *genStale) Now() {}
func (g *genStale) Old() {}

func init() {
	RegisterGenerated("charmgo/internal/core.genStale", &GenBinding{
		Type:     "genStale",
		Methods:  []string{"Gone", "Now", "Old"},
		Dispatch: func(any, int, []any) (any, bool) { return nil, false },
		Enc:      make([]func([]byte, []any) ([]byte, bool), 3),
		Dec:      make([]func([]any, []byte, bool) ([]any, int, bool), 3),
	})
}

func TestStaleGenBindingPanics(t *testing.T) {
	rt := NewRuntime(Config{PEs: 1})
	defer expectPanic(t, "stale")
	rt.Register(&genStale{})
}

// Proxy and Future arguments must round-trip through the flat codec with nil
// element indices preserved (nil Elem = broadcast proxy) and no gob on the
// wire.
func TestProxyFutureFlatCodec(t *testing.T) {
	if !ser.HasFlat(Proxy{}) || !ser.HasFlat(Future{}) {
		t.Fatal("core did not register flat codecs for Proxy/Future")
	}
	in := []any{
		Proxy{CID: 7},
		Proxy{CID: 9, Elem: []int{2, 3}},
		Future{Ref: FutureRef{PE: 5, ID: 42}},
	}
	buf, err := ser.AppendArgs(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := ser.DecodeArgs(buf)
	if err != nil {
		t.Fatal(err)
	}
	p0 := out[0].(Proxy)
	if p0.CID != 7 || p0.Elem != nil {
		t.Errorf("broadcast proxy decoded as %+v; nil Elem must survive", p0)
	}
	p1 := out[1].(Proxy)
	if p1.CID != 9 || len(p1.Elem) != 2 || p1.Elem[0] != 2 || p1.Elem[1] != 3 {
		t.Errorf("indexed proxy decoded as %+v", p1)
	}
	f := out[2].(Future)
	if f.Ref.PE != 5 || f.Ref.ID != 42 {
		t.Errorf("future decoded as %+v", f)
	}
}
