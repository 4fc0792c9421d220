// Typed entry-method handles: Compiled mode's dispatch and codecs.
//
// A package declares, once, in init, one handle per entry method of each of
// its chare types, built from a method expression:
//
//	func init() {
//		core.Bind[Block](
//			core.EM3((*Block).RecvGhost),
//			core.EM0((*Block).ReportStats),
//		)
//	}
//
// A handle is a generic closure that asserts the receiver and the arguments
// and calls the method directly: no reflect.Value, no name lookup, no
// coercion. Arguments cross the wire through one ser codec (ser.AppendArgs,
// ser.DecodeArgsInto); fixed-size parameters are read straight from the
// received bytes: a handle whose parameters are all fixed-size (bool, int,
// int64, float64, Future) has a wire call, and a box for it keeps the
// argument bytes instead of a decoded list. In Compiled mode Register attaches
// the handles: calls ship the method id and take the typed path. Interpreted
// mode attaches none; chares without handles keep the reflective (and
// gob-fallback) paths, on the same wire format. This is the repo's model of
// Charm++'s charmxi-generated stubs, with Go generics in place of a
// translator, and of Charm4Py's move from interpreted method lookup to
// generated stubs (PAPERS.md, Fink et al. 2021).
package core

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"

	"charmgo/internal/ser"
)

// EM is a typed entry-method handle. Build it with EM0 to EM5, or EM0R to
// EM2R for a method with one result, from a method expression such as
// (*Block).RecvGhost, and pass the handles of one chare type to Bind.
type EM struct {
	fn any // the method expression; Bind names the handle after it
	// call invokes the method on obj. ok=false means the handle declined:
	// wrong receiver, wrong argument count, or an argument that is not of
	// the parameter's type (a caller relying on numeric coercion), and the
	// caller must take the reflective path.
	call func(obj any, args []any) (ret any, ok bool)
	// wire is call with the parameters read off an encoded list (a box's
	// kept bytes), calling fn: the method, or a stand-in of its type. Handles
	// without parameters have none: their list decodes without allocating.
	wire func(fn, obj any, data []byte, rt *Runtime) (ret any, ok bool)
}

// argAs asserts a received argument to parameter type A. A nil argument
// fills an interface-typed parameter with nil, as reflection would.
func argAs[A any](a any) (A, bool) {
	v, ok := a.(A)
	if !ok && a == nil {
		ok = reflect.TypeFor[A]().Kind() == reflect.Interface
	}
	return v, ok
}

// EM0 is the handle of an entry method without arguments.
func EM0[T any](f func(*T)) EM {
	return EM{fn: f, call: func(obj any, args []any) (any, bool) {
		self, ok := obj.(*T)
		if !ok || len(args) != 0 {
			return nil, false
		}
		f(self)
		return nil, true
	}}
}

// EM1 is the handle of an entry method with one argument.
func EM1[T, A any](f func(*T, A)) EM {
	return EM{fn: f, call: func(obj any, args []any) (any, bool) {
		self, ok := obj.(*T)
		if !ok || len(args) != 1 {
			return nil, false
		}
		a, ok := argAs[A](args[0])
		if !ok {
			return nil, false
		}
		f(self, a)
		return nil, true
	}, wire: func(fn, obj any, data []byte, rt *Runtime) (any, bool) {
		self, in, ok := wireOpen[T](obj, data, 1)
		a := readArg[A](&in, rt)
		if ok = ok && in.Ok(); ok {
			fn.(func(*T, A))(self, a)
		}
		return nil, ok
	}}
}

// EM2 is the handle of an entry method with two arguments.
func EM2[T, A, B any](f func(*T, A, B)) EM {
	return EM{fn: f, call: func(obj any, args []any) (any, bool) {
		self, ok := obj.(*T)
		if !ok || len(args) != 2 {
			return nil, false
		}
		a, ok0 := argAs[A](args[0])
		b, ok1 := argAs[B](args[1])
		if !ok0 || !ok1 {
			return nil, false
		}
		f(self, a, b)
		return nil, true
	}, wire: func(fn, obj any, data []byte, rt *Runtime) (any, bool) {
		self, in, ok := wireOpen[T](obj, data, 2)
		a, b := readArg[A](&in, rt), readArg[B](&in, rt)
		if ok = ok && in.Ok(); ok {
			fn.(func(*T, A, B))(self, a, b)
		}
		return nil, ok
	}}
}

// EM3 is the handle of an entry method with three arguments.
func EM3[T, A, B, C any](f func(*T, A, B, C)) EM {
	return EM{fn: f, call: func(obj any, args []any) (any, bool) {
		self, ok := obj.(*T)
		if !ok || len(args) != 3 {
			return nil, false
		}
		a, ok0 := argAs[A](args[0])
		b, ok1 := argAs[B](args[1])
		c, ok2 := argAs[C](args[2])
		if !ok0 || !ok1 || !ok2 {
			return nil, false
		}
		f(self, a, b, c)
		return nil, true
	}, wire: func(fn, obj any, data []byte, rt *Runtime) (any, bool) {
		self, in, ok := wireOpen[T](obj, data, 3)
		a, b, c := readArg[A](&in, rt), readArg[B](&in, rt), readArg[C](&in, rt)
		if ok = ok && in.Ok(); ok {
			fn.(func(*T, A, B, C))(self, a, b, c)
		}
		return nil, ok
	}}
}

// EM4 is the handle of an entry method with four arguments.
func EM4[T, A, B, C, D any](f func(*T, A, B, C, D)) EM {
	return EM{fn: f, call: func(obj any, args []any) (any, bool) {
		self, ok := obj.(*T)
		if !ok || len(args) != 4 {
			return nil, false
		}
		a, ok0 := argAs[A](args[0])
		b, ok1 := argAs[B](args[1])
		c, ok2 := argAs[C](args[2])
		d, ok3 := argAs[D](args[3])
		if !ok0 || !ok1 || !ok2 || !ok3 {
			return nil, false
		}
		f(self, a, b, c, d)
		return nil, true
	}, wire: func(fn, obj any, data []byte, rt *Runtime) (any, bool) {
		self, in, ok := wireOpen[T](obj, data, 4)
		a, b, c, d := readArg[A](&in, rt), readArg[B](&in, rt), readArg[C](&in, rt), readArg[D](&in, rt)
		if ok = ok && in.Ok(); ok {
			fn.(func(*T, A, B, C, D))(self, a, b, c, d)
		}
		return nil, ok
	}}
}

// EM5 is the handle of an entry method with five arguments.
func EM5[T, A, B, C, D, E any](f func(*T, A, B, C, D, E)) EM {
	return EM{fn: f, call: func(obj any, args []any) (any, bool) {
		self, ok := obj.(*T)
		if !ok || len(args) != 5 {
			return nil, false
		}
		a, ok0 := argAs[A](args[0])
		b, ok1 := argAs[B](args[1])
		c, ok2 := argAs[C](args[2])
		d, ok3 := argAs[D](args[3])
		e, ok4 := argAs[E](args[4])
		if !ok0 || !ok1 || !ok2 || !ok3 || !ok4 {
			return nil, false
		}
		f(self, a, b, c, d, e)
		return nil, true
	}, wire: func(fn, obj any, data []byte, rt *Runtime) (any, bool) {
		self, in, ok := wireOpen[T](obj, data, 5)
		a, b, c, d, e := readArg[A](&in, rt), readArg[B](&in, rt), readArg[C](&in, rt), readArg[D](&in, rt), readArg[E](&in, rt)
		if ok = ok && in.Ok(); ok {
			fn.(func(*T, A, B, C, D, E))(self, a, b, c, d, e)
		}
		return nil, ok
	}}
}

// EM0R is the handle of an entry method without arguments and with one
// result, which a CallRet future receives.
func EM0R[T, R any](f func(*T) R) EM {
	return EM{fn: f, call: func(obj any, args []any) (any, bool) {
		self, ok := obj.(*T)
		if !ok || len(args) != 0 {
			return nil, false
		}
		return f(self), true
	}}
}

// EM1R is EM0R for a method with one argument.
func EM1R[T, A, R any](f func(*T, A) R) EM {
	return EM{fn: f, call: func(obj any, args []any) (any, bool) {
		self, ok := obj.(*T)
		if !ok || len(args) != 1 {
			return nil, false
		}
		a, ok := argAs[A](args[0])
		if !ok {
			return nil, false
		}
		return f(self, a), true
	}, wire: func(fn, obj any, data []byte, rt *Runtime) (any, bool) {
		self, in, ok := wireOpen[T](obj, data, 1)
		a := readArg[A](&in, rt)
		if !ok || !in.Ok() {
			return nil, false
		}
		return fn.(func(*T, A) R)(self, a), true
	}}
}

// EM2R is EM0R for a method with two arguments.
func EM2R[T, A, B, R any](f func(*T, A, B) R) EM {
	return EM{fn: f, call: func(obj any, args []any) (any, bool) {
		self, ok := obj.(*T)
		if !ok || len(args) != 2 {
			return nil, false
		}
		a, ok0 := argAs[A](args[0])
		b, ok1 := argAs[B](args[1])
		if !ok0 || !ok1 {
			return nil, false
		}
		return f(self, a, b), true
	}, wire: func(fn, obj any, data []byte, rt *Runtime) (any, bool) {
		self, in, ok := wireOpen[T](obj, data, 2)
		a, b := readArg[A](&in, rt), readArg[B](&in, rt)
		if !ok || !in.Ok() {
			return nil, false
		}
		return fn.(func(*T, A, B) R)(self, a, b), true
	}}
}

// fixedArgs are the parameter types whose values have a fixed-size
// encoding. A handle with parameters of these alone reads them at the call
// (EM.wire), so a box keeps its arguments' bytes rather than a list.
var fixedArgs = map[reflect.Type]bool{
	reflect.TypeFor[bool](): true, reflect.TypeFor[int](): true,
	reflect.TypeFor[int64](): true, reflect.TypeFor[float64](): true,
	reflect.TypeFor[Future](): true,
}

// boundEM is a handle as Bind leaves it: named, and with a wire call only
// if its invokes keep their argument bytes.
type boundEM struct {
	name   string // the method's name, or the func's full name if it is no method of *T
	method bool   // name is a method of *T
	fn     any
	call   func(obj any, args []any) (any, bool)
	wire   func(fn, obj any, data []byte, rt *Runtime) (any, bool) // nil unless every parameter is in fixedArgs
}

// binding is the handle set of one chare type, sorted by name so that a
// handle's index is the method id Register derives by reflection.
type binding struct {
	ems []boundEM
}

// bindings maps a chare struct type to its binding.
var bindings sync.Map

// Bind declares the typed entry-method handles of chare type T. Call it
// once per type, from package initialization, before any Runtime exists;
// Register picks the handles up when T is registered, and panics if they do
// not match T's entry methods one to one. Bind also gives every eligible
// struct parameter a flat codec (ser.RegisterFlatStruct), in both dispatch
// modes, so such arguments never travel by gob.
func Bind[T any](hs ...EM) {
	t := reflect.TypeFor[T]()
	prefix := t.PkgPath() + ".(*" + t.Name() + ")." // how the runtime names a method of *T
	b := &binding{ems: make([]boundEM, len(hs))}
	for i, h := range hs {
		ft := reflect.TypeOf(h.fn)
		e := boundEM{fn: h.fn, call: h.call, wire: h.wire}
		e.name = runtime.FuncForPC(reflect.ValueOf(h.fn).Pointer()).Name()
		if m, ok := strings.CutPrefix(e.name, prefix); ok && ft.In(0).Elem() == t && !strings.Contains(m, ".") {
			e.name, e.method = m, true
		}
		for a := 1; a < ft.NumIn(); a++ {
			pt := ft.In(a)
			if pt.Kind() == reflect.Struct {
				ser.RegisterFlatStruct(pt) // declines Proxy and Future: they have codecs of their own (below)
			}
			if !fixedArgs[pt] {
				e.wire = nil
			}
		}
		b.ems[i] = e
	}
	slices.SortStableFunc(b.ems, func(x, y boundEM) int { return strings.Compare(x.name, y.name) })
	if _, dup := bindings.LoadOrStore(t, b); dup {
		panic(fmt.Sprintf("core: Bind[%s] called twice", t.Name()))
	}
}

// bindingFor returns the handles bound to chare struct type st, or nil.
// Register calls it in both dispatch modes, so that a handle set that does
// not match methods, the sorted entry-method names of st, is a startup
// panic naming the type and the method, whichever mode the job runs in.
func bindingFor(st reflect.Type, methods []string) *binding {
	v, ok := bindings.Load(st)
	if !ok {
		return nil
	}
	b := v.(*binding)
	bad := func(format string, a ...any) {
		panic(fmt.Sprintf("core: entry-method handles for %s: %s", st.Name(), fmt.Sprintf(format, a...)))
	}
	for i, e := range b.ems {
		switch {
		case !e.method:
			bad("%s is not a method of *%s", e.name, st.Name())
		case i > 0 && b.ems[i-1].name == e.name:
			bad("%s.%s has two handles", st.Name(), e.name)
		case !slices.Contains(methods, e.name):
			bad("%s.%s is not an entry method", st.Name(), e.name)
		}
	}
	for _, m := range methods {
		if !slices.ContainsFunc(b.ems, func(e boundEM) bool { return e.name == m }) {
			bad("no handle for %s.%s", st.Name(), m)
		}
	}
	return b
}

// keeps reports whether a decoded invoke of method id keeps its argument
// bytes; never for a type without handles attached (b nil).
func (b *binding) keeps(id int32) bool {
	return b != nil && id >= 0 && int(id) < len(b.ems) && b.ems[id].wire != nil
}

// wireOpen starts a wire call of n parameters on obj: ok if data lists n.
func wireOpen[T any](obj any, data []byte, n int) (*T, ser.Dec, bool) {
	self, ok := obj.(*T)
	d := ser.NewDec(data, false)
	return self, d, ok && d.Count() == n
}

// readArg reads a parameter of a fixedArgs type, a Future bound to rt as
// delivery would bind it.
func readArg[A any](d *ser.Dec, rt *Runtime) (v A) {
	switch p := any(&v).(type) {
	case *bool:
		*p = d.Bool()
	case *int:
		*p = d.Int()
	case *int64:
		*p = d.Int64()
	case *float64:
		*p = d.Float64()
	case *Future:
		if d.FlatHeader(futureFlatName) {
			*p = readFutureFields(d)
		}
		p.rt = rt
	}
	return v
}

// Proxies and futures are the most common non-primitive entry-method
// arguments; their flat codecs are registered here so every binary, with
// handles or without, ships them gob-free. Wire names are fixed strings (not
// derived from reflection) because they are part of the wire format.
const (
	proxyFlatName  = "core.Proxy"
	futureFlatName = "core.Future"
)

func appendProxyFields(dst []byte, p Proxy) []byte {
	dst = ser.AppendCount(dst, 2)
	dst = ser.AppendInt(dst, int(p.CID))
	// nil Elem means "whole collection"; it must not decode as empty.
	return ser.AppendIntsOrNil(dst, p.Elem)
}

func readProxyFields(d *ser.Dec) Proxy {
	var p Proxy
	if d.Count() != 2 {
		d.Abort("proxy field count")
		return p
	}
	p.CID = CID(d.Int())
	p.Elem = d.IntsOrNil()
	return p
}

func appendFutureFields(dst []byte, f Future) []byte {
	dst = ser.AppendCount(dst, 2)
	dst = ser.AppendInt(dst, int(f.Ref.PE))
	return ser.AppendInt64(dst, f.Ref.ID)
}

func readFutureFields(d *ser.Dec) Future {
	var f Future
	if d.Count() != 2 {
		d.Abort("future field count")
		return f
	}
	f.Ref.PE = PE(d.Int())
	f.Ref.ID = d.Int64()
	return f
}

func init() {
	ser.RegisterFlat(proxyFlatName, Proxy{},
		func(dst []byte, v any) ([]byte, bool) {
			p, ok := v.(Proxy)
			if !ok {
				return dst, false
			}
			return appendProxyFields(dst, p), true
		},
		func(data []byte) (any, int, error) {
			d := ser.NewDec(data, false)
			p := readProxyFields(&d)
			return p, d.Used(), d.Err()
		})
	ser.RegisterFlat(futureFlatName, Future{},
		func(dst []byte, v any) ([]byte, bool) {
			f, ok := v.(Future)
			if !ok {
				return dst, false
			}
			return appendFutureFields(dst, f), true
		},
		func(data []byte) (any, int, error) {
			d := ser.NewDec(data, false)
			f := readFutureFields(&d)
			return f, d.Used(), d.Err()
		})
}
