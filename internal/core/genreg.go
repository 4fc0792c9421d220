// Generated-binding registry: the hook `charmgo gen` output plugs into.
//
// A generated charmgo_gen.go file registers, from init(), one GenBinding per
// chare type: a typed dispatch function (flat switch over method ids, direct
// calls, no reflect.Value) and per-method argument encoders/decoders writing
// the ser wire format with no reflection and no gob. Register attaches the
// binding to the chare type when the method sets agree, after which both
// dispatch modes use the generated path; chares without bindings keep the
// reflect (and gob-fallback) paths, byte-compatible on the wire. This is the
// repo's analog of Charm4Py's move from interpreted method lookup to
// generated stubs (PAPERS.md, Fink et al. 2021).
package core

import (
	"fmt"
	"slices"
	"sync"

	"charmgo/internal/ser"
)

// GenBinding is the set of generated entry points for one chare type.
// Method ids are the alphabetical rank of the entry-method name, identical
// to the ids Register derives by reflection.
type GenBinding struct {
	// Type is the chare struct name (diagnostics only).
	Type string
	// Methods is the sorted entry-method name list the binding was generated
	// against. Register validates it against the reflected set and panics on
	// drift, so stale bindings fail loudly at startup rather than corrupting
	// dispatch.
	Methods []string
	// Dispatch invokes method id on obj. ok=false means the binding declined
	// (wrong receiver type or an argument failed its type assertion, e.g. a
	// dynamic-mode caller relying on numeric coercion) and the caller must
	// fall back to the reflective path.
	Dispatch func(obj any, id int, args []any) (ret any, ok bool)
	// Enc[id] appends the encoded argument list for method id, byte-identical
	// with ser.AppendArgs. ok=false (arguments didn't match the generated
	// signature) leaves dst unmodified.
	Enc []func(dst []byte, args []any) ([]byte, bool)
	// Dec[id] decodes an argument list for method id, appending the arguments
	// to dst (the receiver's recycled slots, wire.go) and returning the bytes
	// consumed. ok=false returns dst as it came and means fall back to
	// ser.DecodeArgsInto.
	Dec []func(dst []any, data []byte, alias bool) ([]any, int, bool)
}

// genBindings maps "pkgpath.TypeName" (reflect's PkgPath, so "main" for main
// packages) to the registered binding.
var genBindings sync.Map

// RegisterGenerated installs a generated binding under a type key. It is
// called from init() in generated files, before any Runtime exists; Register
// picks the binding up when the chare type itself is registered. Conflicting
// re-registration panics.
func RegisterGenerated(key string, b *GenBinding) {
	if b == nil || b.Dispatch == nil ||
		len(b.Enc) != len(b.Methods) || len(b.Dec) != len(b.Methods) {
		panic(fmt.Sprintf("core: malformed generated binding for %q", key))
	}
	if prev, dup := genBindings.LoadOrStore(key, b); dup {
		if !slices.Equal(prev.(*GenBinding).Methods, b.Methods) {
			panic(fmt.Sprintf("core: conflicting generated bindings for %q", key))
		}
	}
}

// genBindingFor returns the registered binding for a chare type, or nil.
func genBindingFor(key string) *GenBinding {
	if b, ok := genBindings.Load(key); ok {
		return b.(*GenBinding)
	}
	return nil
}

// Proxies and futures are the most common non-primitive entry-method
// arguments, and they are core types the generator cannot emit codecs for
// from user packages — register their flat codecs here so every binary,
// generated or not, ships them gob-free. Wire names are fixed strings (not
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

// AppendProxyArg appends a Proxy argument in the flat wire encoding,
// byte-identical with the generic path. For generated encoders.
func AppendProxyArg(dst []byte, p Proxy) []byte {
	return appendProxyFields(ser.AppendFlatHeader(dst, proxyFlatName), p)
}

// ReadProxyArg reads a Proxy argument written by AppendProxyArg (or the
// generic encoder). The proxy is unbound; delivery rebinds it.
func ReadProxyArg(d *ser.Dec) Proxy {
	if !d.FlatHeader(proxyFlatName) {
		return Proxy{}
	}
	return readProxyFields(d)
}

// AppendFutureArg appends a Future argument in the flat wire encoding.
func AppendFutureArg(dst []byte, f Future) []byte {
	return appendFutureFields(ser.AppendFlatHeader(dst, futureFlatName), f)
}

// ReadFutureArg reads a Future argument written by AppendFutureArg (or the
// generic encoder). The future is unbound; delivery rebinds it.
func ReadFutureArg(d *ser.Dec) Future {
	if !d.FlatHeader(futureFlatName) {
		return Future{}
	}
	return readFutureFields(d)
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
		func(d *ser.Dec) (any, bool) {
			p := readProxyFields(d)
			return p, d.Ok()
		})
	ser.RegisterFlat(futureFlatName, Future{},
		func(dst []byte, v any) ([]byte, bool) {
			f, ok := v.(Future)
			if !ok {
				return dst, false
			}
			return appendFutureFields(dst, f), true
		},
		func(d *ser.Dec) (any, bool) {
			f := readFutureFields(d)
			return f, d.Ok()
		})
}
