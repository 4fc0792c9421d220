package core_test

import (
	"reflect"
	"slices"
	"testing"

	"charmgo/internal/bench"
	"charmgo/internal/core"
	_ "charmgo/internal/darray"
	_ "charmgo/internal/elastic"
	"charmgo/internal/leanmd"
	_ "charmgo/internal/pool"
	"charmgo/internal/ser"
	_ "charmgo/internal/simcluster"
	"charmgo/internal/stencil"
	"charmgo/internal/wave2d"
)

// mapPart is a test-local bound chare whose parameters are maps and a named
// slice of structs, kinds no shipped chare's entry methods take.
type mapPart struct{ core.Chare }

type mapCol struct {
	Name string
	Kind int
}

type mapSchema []mapCol

func (*mapPart) Init(mapSchema) {}

func (*mapPart) RecvBatch(map[string][]float64, map[string][]string, core.Future) {}

func init() {
	core.Bind[mapPart](
		core.EM1((*mapPart).Init),
		core.EM3((*mapPart).RecvBatch),
	)
}

// sampleArg builds a sample value of parameter type t: every field and
// element set, integers past the runtime's small-value cache, nil slices
// nowhere (top-level arguments do not keep nil-ness on the wire).
func sampleArg(t reflect.Type) reflect.Value {
	v := reflect.New(t).Elem()
	switch t {
	case reflect.TypeFor[core.Proxy]():
		return reflect.ValueOf(core.Proxy{CID: 3, Elem: []int{1, 2}})
	case reflect.TypeFor[core.Future]():
		return reflect.ValueOf(core.Future{Ref: core.FutureRef{PE: 1, ID: 1 << 40}})
	}
	switch t.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(300)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(-2.5)
	case reflect.String:
		v.SetString("key-0042")
	case reflect.Interface:
		v.Set(reflect.ValueOf("any"))
	case reflect.Slice:
		v = reflect.MakeSlice(t, 2, 2)
		for i := 0; i < 2; i++ {
			v.Index(i).Set(sampleArg(t.Elem()))
		}
	case reflect.Map:
		v = reflect.MakeMap(t)
		v.SetMapIndex(sampleArg(t.Key()), sampleArg(t.Elem()))
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).IsExported() {
				v.Field(i).Set(sampleArg(t.Field(i).Type))
			}
		}
	}
	return v
}

// TestHandleWireIdentity holds every entry-method handle bound in this
// binary to ser's one codec. A handle with parameters, all fixed-size, has a
// wire call, which a receiver's box that kept the argument bytes dispatches
// through: for sample arguments encoded by ser.AppendArgs it must hand the
// method the parameters ser.DecodeArgs reads, and call nothing for a list
// of another length or a cut one. Every other handle has none, and its
// invokes decode into a list.
func TestHandleWireIdentity(t *testing.T) {
	ms := core.BoundMethods()
	seen := map[string]bool{}
	wired := map[string]bool{}
	params := map[reflect.Type]bool{}
	for _, bm := range ms {
		seen[bm.Chare.PkgPath()+"."+bm.Chare.Name()] = true
		m, ok := reflect.PointerTo(bm.Chare).MethodByName(bm.Method)
		if !ok {
			t.Fatalf("%s has no method %s", bm.Chare, bm.Method)
		}
		args := make([]any, m.Type.NumIn()-1)
		for i := range args {
			pt := m.Type.In(i + 1)
			params[pt] = true
			args[i] = sampleArg(pt).Interface()
			ser.RegisterType(args[i]) // as the package's setup does for gob-carried types
		}
		name := bm.Chare.Name() + "." + bm.Method
		want, err := ser.AppendArgs(nil, args)
		if err != nil {
			t.Fatalf("%s: ser.AppendArgs: %v", name, err)
		}
		fixed := len(args) > 0 // a list of none decodes without allocating
		for _, a := range args {
			switch a.(type) {
			case bool, int, int64, float64, core.Future:
			default:
				fixed = false
			}
		}
		if (bm.Wire != nil) != fixed {
			t.Errorf("%s: has a wire call %v, want one exactly when every parameter is fixed-size (%v)", name, bm.Wire != nil, fixed)
			continue
		}
		if !fixed {
			continue
		}
		wired[name] = true
		ref, _, err := ser.DecodeArgs(want)
		if err != nil {
			t.Fatalf("%s: generic decode: %v", name, err)
		}
		params, called, ok := bm.Wire(want)
		if !ok || !called || len(params) != len(ref) {
			t.Errorf("%s: wire call ok %v, called %v, got %d parameters for %d arguments", name, ok, called, len(params), len(ref))
			continue
		}
		for i := range ref {
			if !reflect.DeepEqual(params[i], ref[i]) || !reflect.DeepEqual(params[i], args[i]) {
				t.Errorf("%s: wire call passed parameter %d as %#v, generic %#v, sent %#v", name, i, params[i], ref[i], args[i])
			}
		}
		longer, _ := ser.AppendArgs(nil, append(slices.Clone(args), 1))
		bad := [][]byte{longer}
		if len(want) > 1 {
			bad = append(bad, want[:len(want)-1])
		}
		for _, b := range bad {
			if _, called, ok := bm.Wire(b); ok || called {
				t.Errorf("%s: wire call on %x: ok %v, called %v; want neither", name, b, ok, called)
			}
		}
	}
	for _, name := range []string{"Ping.Ping", "Ping.Count"} {
		if !wired[name] {
			t.Errorf("bench.%s has no wire call: stream_tcp's invokes decode into a list again", name)
		}
	}
	// The shipped chare types linked into this binary, and mapPart (the
	// examples are main packages; their parameter types are all among
	// those below).
	for _, typ := range []string{
		"charmgo/internal/bench.Ping", "charmgo/internal/darray.Chunk",
		"charmgo/internal/core_test.mapPart", "charmgo/internal/elastic.Shard",
		"charmgo/internal/leanmd.Cell", "charmgo/internal/leanmd.Compute",
		"charmgo/internal/pool.MapManager", "charmgo/internal/pool.Worker",
		"charmgo/internal/simcluster.pingChare", "charmgo/internal/stencil.Block",
		"charmgo/internal/stencil.ChanBlock", "charmgo/internal/wave2d.Block",
	} {
		if !seen[typ] {
			t.Errorf("no handles bound for %s", typ)
		}
	}
	for _, pt := range []reflect.Type{
		reflect.TypeFor[stencil.Params](), reflect.TypeFor[leanmd.Params](),
		reflect.TypeFor[wave2d.Params](), reflect.TypeFor[bench.Vec3](),
		reflect.TypeFor[core.Proxy](), reflect.TypeFor[core.Future](),
		reflect.TypeFor[[]any](), reflect.TypeFor[any](),
		reflect.TypeFor[map[string][]float64](), reflect.TypeFor[map[string][]string](),
		reflect.TypeFor[mapSchema](),
		reflect.TypeFor[bool](), reflect.TypeFor[[]float64](),
	} {
		if !params[pt] {
			t.Errorf("no bound handle takes a %v", pt)
		}
	}
	// The four flat structs travel flat, not by gob, in both dispatch modes.
	for _, v := range []any{stencil.Params{}, leanmd.Params{}, wave2d.Params{}, bench.Vec3{}} {
		typ := reflect.TypeOf(v)
		b, err := ser.AppendArgs(nil, []any{v})
		d := ser.NewDec(b, false)
		if err != nil || d.Count() != 1 || !d.FlatHeader(typ.PkgPath()+"."+typ.Name()) {
			t.Errorf("%T has no flat codec", v)
		}
	}
	if len(ms) == 0 || !slices.ContainsFunc(ms, func(bm core.BoundMethod) bool { return bm.Method == "RecvGhost" }) {
		t.Error("stencil.Block.RecvGhost has no handle")
	}
}
