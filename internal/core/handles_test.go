package core

// Tests for typed entry-method handles on the runtime side: attachment at
// Register in Compiled mode only, coercion fallback, the startup panic for a
// handle set that does not match the type's entry methods, and the flat
// codecs of Proxy and Future. handles_wire_test.go holds every shipped
// handle's wire call to ser.DecodeArgs.

import (
	"strings"
	"sync/atomic"
	"testing"

	"charmgo/internal/metrics"
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

func init() {
	Bind[genPing](
		EM1((*genPing).Add),
		EM1((*genPing).Done),
		EM1((*genPing).Mixed),
		EM1((*genPing).Note),
		EM0R((*genPing).Sum),
	)
}

func testGenDispatch(t *testing.T, mode DispatchMode, force bool) {
	reg := metrics.NewRegistry()
	runJob(t, Config{PEs: 2, Dispatch: mode, ForceSerialize: force, Metrics: reg}, func(rt *Runtime) {
		rt.Register(&genPing{})
	}, func(self *Chare) {
		p := self.NewChare(&genPing{}, 1)
		p.Call("Add", 4)
		p.Call("Note", "hi")
		p.Call("Mixed", 2) // int where float64 is expected: the handle declines
		f := self.CreateFuture()
		p.Call("Done", f)
		if got := f.Get(); got != 6 {
			t.Errorf("total = %v, want 6", got)
		}
		if got := p.CallRet("Sum").Get(); got != 6 {
			t.Errorf("Sum = %v, want 6", got)
		}
	})
	// Compiled: Add, Note, Done, Sum go through their handles; Mixed needs
	// int->float64 coercion, declines, and is delivered by reflection (not
	// counted). Interpreted: the handles are never attached.
	want := int64(4)
	if mode == DynamicDispatch {
		want = 0
	}
	if hits := reg.Counter("charmgo_dispatch_generated_total", "").Value(); hits != want {
		t.Errorf("typed dispatches = %d, want %d", hits, want)
	}
}

func TestGenBindingDynamic(t *testing.T)    { testGenDispatch(t, DynamicDispatch, false) }
func TestGenBindingStatic(t *testing.T)     { testGenDispatch(t, StaticDispatch, false) }
func TestGenBindingSerialized(t *testing.T) { testGenDispatch(t, StaticDispatch, true) }

// Interpreted mode is the paper's CharmPy: a chare type with handles, over
// the wire codec, still gets none attached. Every call travels by name,
// dispatches by reflection, and int->float64 coercion delivers.
func TestInterpretedIgnoresBindings(t *testing.T) {
	var byID, byName atomic.Int64
	reg := metrics.NewRegistry()
	runJob(t, Config{PEs: 2, Dispatch: DynamicDispatch, ForceSerialize: true, Metrics: reg}, func(rt *Runtime) {
		rt.Register(&genPing{})
		rt.holdEM = func(p *peState, m *Message) {
			switch {
			case m.Method == "Run": // the main chare
			case m.MID >= 0:
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
	if hits := reg.Counter("charmgo_dispatch_generated_total", "").Value(); hits != 0 {
		t.Errorf("typed dispatches = %d in Interpreted mode, want 0", hits)
	}
	if byID.Load() != 0 || byName.Load() != 4 {
		t.Errorf("invokes by id = %d, by name = %d; want 0 and 4", byID.Load(), byName.Load())
	}
}

// Handle sets that do not match their type's entry methods one to one. Each
// is bound at init, as a package would, and must fail at Register.
type (
	bindMissing struct{ Chare }
	bindClosure struct{ Chare }
	bindDup     struct{ Chare }
	bindOther   struct{ Chare }
)

func (*bindMissing) Now() {}
func (*bindMissing) Old() {}
func (*bindClosure) Now() {}
func (*bindDup) Now()     {}
func (*bindOther) Now()   {}

func init() {
	Bind[bindMissing](EM0((*bindMissing).Now))
	Bind[bindClosure](EM0((*bindClosure).Now), EM0(func(*bindClosure) {}))
	Bind[bindDup](EM0((*bindDup).Now), EM0((*bindDup).Now))
	Bind[bindOther](EM0((*bindOther).Now), EM1((*genPing).Add))
}

func TestBadBindPanics(t *testing.T) {
	cases := []struct {
		name   string
		proto  Chareable
		typ    string // the type the panic must name
		method string // and the method, or func
	}{
		{"missing method", &bindMissing{}, "bindMissing", "Old"},
		{"closure", &bindClosure{}, "bindClosure", "func1"},
		{"duplicate", &bindDup{}, "bindDup", "Now"},
		{"another type's method", &bindOther{}, "bindOther", "(*genPing).Add"},
	}
	for _, tc := range cases {
		for mode, modeName := range []string{StaticDispatch: "compiled", DynamicDispatch: "interpreted"} {
			t.Run(tc.name+"/"+modeName, func(t *testing.T) {
				rt := NewRuntime(Config{PEs: 1, Dispatch: DispatchMode(mode)})
				defer func() {
					r := recover()
					msg, _ := r.(string)
					if !strings.Contains(msg, tc.typ) || !strings.Contains(msg, tc.method) {
						t.Errorf("Register panicked with %v; want a message naming %s and %s", r, tc.typ, tc.method)
					}
				}()
				rt.Register(tc.proto)
			})
		}
	}
}

// travelsFlat reports whether ser encodes v with the flat codec registered
// under name rather than with gob.
func travelsFlat(v any, name string) bool {
	b, err := ser.AppendArgs(nil, []any{v})
	if err != nil {
		return false
	}
	d := ser.NewDec(b, false)
	return d.Count() == 1 && d.FlatHeader(name)
}

// Proxy and Future arguments must round-trip through the flat codec with nil
// element indices preserved (nil Elem = broadcast proxy) and no gob on the
// wire.
func TestProxyFutureFlatCodec(t *testing.T) {
	if !travelsFlat(Proxy{}, proxyFlatName) || !travelsFlat(Future{}, futureFlatName) {
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

// TestDecodeFlatArgsAllocs bounds what the generic decoder costs for core's
// flat values decoded into recycled argument slots, the path of every list a
// box does not keep: a Future costs its interface box, a Proxy that and its
// index, a string its bytes and its box. Each read one more (2, 3 and 4)
// while ser handed the decoders registered for Proxy and Future a heap copy
// of its reader.
func TestDecodeFlatArgsAllocs(t *testing.T) {
	fut := Future{Ref: FutureRef{PE: 1, ID: 1 << 40}}
	for _, c := range []struct {
		name string
		args []any
		want float64
	}{
		{"[Future]", []any{fut}, 1},
		{"[Proxy]", []any{Proxy{CID: 3, Elem: []int{1, 2}}}, 2},
		{"[key, Future]", []any{"key", fut}, 3},
	} {
		data, err := ser.AppendArgs(nil, c.args)
		if err != nil {
			t.Fatal(err)
		}
		slots := make([]any, 0, len(c.args))
		got := testing.AllocsPerRun(200, func() {
			out, used, err := ser.DecodeArgsInto(slots[:0], data, false)
			if err != nil || used != len(data) || len(out) != len(c.args) {
				t.Fatalf("%s: decoded %d args from %d of %d bytes: %v", c.name, len(out), used, len(data), err)
			}
		})
		t.Logf("%s: %.1f allocs", c.name, got)
		if got > c.want {
			t.Errorf("%s into recycled slots: %.1f allocs, want <= %.0f", c.name, got, c.want)
		}
	}
}
