package core

import "reflect"

// Proxies and futures are plain values that cross PE and node boundaries
// inside arguments and migrated chare state (paper: "proxies can be passed
// to other chares"). Their unexported runtime pointers cannot be serialized,
// so the runtime re-binds them on arrival.
//
// Two walkers exist because of ownership:
//
//   - In-place walking (rebindValue) is only safe on exclusively-owned data:
//     values freshly decoded at node ingress, and migrated chare state.
//   - Delivery-time rebinding (rebindArgs) must be PURE: within a node,
//     argument lists are shared by reference between sender and receivers
//     (the paper's same-process optimization), and one slice may be inside
//     several in-flight messages at once. rebindPure copies every container
//     it changes and never mutates shared data.

// rebindMsg re-binds decoded cross-node payloads to this runtime (in-place:
// decoded data is exclusively ours).
func (rt *Runtime) rebindMsg(m *Message) {
	for i, a := range m.Args {
		m.Args[i] = rt.rebindOwned(a, nil)
	}
	switch c := m.Ctl.(type) {
	case *futSetMsg:
		c.Val = rt.rebindOwned(c.Val, nil)
	case *createMsg:
		// Resolved here, once, before every local PE shares c (putCollMeta).
		rt.mu.Lock()
		c.ct = rt.types[c.Type]
		rt.mu.Unlock()
		for i, a := range c.Args {
			c.Args[i] = rt.rebindOwned(a, nil)
		}
	case *insertMsg:
		for i, a := range c.Args {
			c.Args[i] = rt.rebindOwned(a, nil)
		}
	case *redPartialMsg:
		c.Data = rt.rebindOwned(c.Data, nil)
		for i := range c.List {
			c.List[i].Data = rt.rebindOwned(c.List[i].Data, nil)
		}
	case *chanMsg:
		c.Val = rt.rebindOwned(c.Val, nil)
	}
}

// rebindOwned rebinds a value we exclusively own, walking through pointers.
func (rt *Runtime) rebindOwned(a any, p *peState) any {
	switch x := a.(type) {
	case Proxy:
		x.rt = rt
		x.p = p
		return x
	case Future:
		x.rt = rt
		return x
	case *Future:
		x.rt = rt
		return x
	case nil:
		return nil
	}
	rv := reflect.ValueOf(a)
	if !typeMayHoldTop(rv.Type()) {
		return a
	}
	switch rv.Kind() {
	case reflect.Ptr:
		if !rv.IsNil() {
			rebindValue(rv.Elem(), rt, p, 0)
		}
		return a
	case reflect.Slice, reflect.Map:
		rebindValue(rv, rt, p, 0)
		return a
	case reflect.Struct:
		cp := reflect.New(rv.Type())
		cp.Elem().Set(rv)
		rebindValue(cp.Elem(), rt, p, 0)
		return cp.Elem().Interface()
	}
	return a
}

// rebindArgs binds proxies/futures in an argument list to the receiving
// element's context, copying on write (argument lists and their containers
// may be shared across concurrent deliveries within the node).
func (p *peState) rebindArgs(el *element, args []any) []any {
	var out []any
	for i, a := range args {
		if !needsRebind(a) {
			continue
		}
		nv := rebindPure(a, p.rt, p, 0)
		if out == nil {
			out = make([]any, len(args))
			copy(out, args)
		}
		out[i] = nv
	}
	if out != nil {
		return out
	}
	return args
}

// rebindState walks a migrated chare's exported fields in place (the
// arriving instance is exclusively ours), re-binding proxies and futures.
func (p *peState) rebindState(el *element) {
	rebindValue(el.obj.Elem(), p.rt, p, 0)
}

var (
	proxyType     = reflect.TypeOf(Proxy{})
	futureType    = reflect.TypeOf(Future{})
	futurePtrType = reflect.TypeOf(&Future{})
)

// needsRebind is a cheap filter so the hot path (numeric buffers, scalars)
// skips the reflective walk entirely.
func needsRebind(a any) bool {
	switch a.(type) {
	case nil, bool, int, int8, int16, int32, int64,
		uint, uint8, uint16, uint32, uint64,
		float32, float64, string,
		[]byte, []int, []int32, []int64, []float32, []float64, []string, []bool:
		return false
	case Proxy, Future, *Future:
		return true
	}
	return typeMayHoldTop(reflect.TypeOf(a))
}

func typeMayHoldTop(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Slice, reflect.Array, reflect.Map, reflect.Ptr:
		return typeMayHold(t.Elem(), 0)
	case reflect.Struct, reflect.Interface:
		return typeMayHold(t, 0)
	}
	return false
}

// typeMayHold reports whether a type could contain a Proxy or Future.
func typeMayHold(t reflect.Type, depth int) bool {
	if depth > 4 {
		return false
	}
	switch t {
	case proxyType, futureType, futurePtrType:
		return true
	}
	switch t.Kind() {
	case reflect.Interface:
		return true
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.PkgPath != "" {
				continue // unexported
			}
			if typeMayHold(f.Type, depth+1) {
				return true
			}
		}
		return false
	case reflect.Slice, reflect.Array, reflect.Ptr, reflect.Map:
		return typeMayHold(t.Elem(), depth+1)
	}
	return false
}

// rebindPure returns a value with proxies/futures bound, copying every
// container it modifies and never writing through shared references.
// Pointer targets are left untouched (mutating them would race with other
// receivers); pass proxies by value, in slices/maps, or in value structs.
func rebindPure(a any, rt *Runtime, p *peState, depth int) any {
	if depth > 6 {
		return a
	}
	switch x := a.(type) {
	case Proxy:
		x.rt = rt
		x.p = p
		return x
	case Future:
		x.rt = rt
		return x
	case *Future:
		if x == nil {
			return x
		}
		cp := *x
		cp.rt = rt
		return &cp
	case nil:
		return nil
	}
	rv := reflect.ValueOf(a)
	if !typeMayHoldTop(rv.Type()) {
		return a
	}
	switch rv.Kind() {
	case reflect.Slice:
		out := reflect.MakeSlice(rv.Type(), rv.Len(), rv.Len())
		for i := 0; i < rv.Len(); i++ {
			ev := rv.Index(i)
			nv := rebindPureValue(ev, rt, p, depth+1)
			out.Index(i).Set(nv)
		}
		return out.Interface()
	case reflect.Map:
		if rv.IsNil() {
			return a
		}
		out := reflect.MakeMapWithSize(rv.Type(), rv.Len())
		iter := rv.MapRange()
		for iter.Next() {
			out.SetMapIndex(iter.Key(), rebindPureValue(iter.Value(), rt, p, depth+1))
		}
		return out.Interface()
	case reflect.Struct:
		cp := reflect.New(rv.Type())
		cp.Elem().Set(rv)
		st := cp.Elem()
		for i := 0; i < st.NumField(); i++ {
			if st.Type().Field(i).PkgPath != "" {
				continue
			}
			f := st.Field(i)
			f.Set(rebindPureValue(f, rt, p, depth+1))
		}
		return st.Interface()
	}
	return a
}

func rebindPureValue(ev reflect.Value, rt *Runtime, p *peState, depth int) reflect.Value {
	if !ev.IsValid() {
		return ev
	}
	if ev.Kind() == reflect.Interface {
		if ev.IsNil() {
			return ev
		}
		return reflect.ValueOf(rebindPure(ev.Interface(), rt, p, depth)).Convert(ev.Type())
	}
	if !typeMayHoldTop(ev.Type()) && ev.Type() != proxyType && ev.Type() != futureType && ev.Type() != futurePtrType {
		return ev
	}
	return reflect.ValueOf(rebindPure(ev.Interface(), rt, p, depth))
}

// rebindValue walks an addressable, exclusively-owned value in place.
func rebindValue(rv reflect.Value, rt *Runtime, p *peState, depth int) {
	if depth > 6 || !rv.IsValid() {
		return
	}
	switch rv.Type() {
	case proxyType:
		if rv.CanSet() {
			pr := rv.Interface().(Proxy)
			pr.rt = rt
			pr.p = p
			rv.Set(reflect.ValueOf(pr))
		}
		return
	case futureType:
		if rv.CanSet() {
			f := rv.Interface().(Future)
			f.rt = rt
			rv.Set(reflect.ValueOf(f))
		}
		return
	}
	switch rv.Kind() {
	case reflect.Ptr:
		if !rv.IsNil() {
			rebindValue(rv.Elem(), rt, p, depth+1)
		}
	case reflect.Interface:
		if rv.IsNil() || !rv.CanSet() {
			return
		}
		rv.Set(reflect.ValueOf(rebindPure(rv.Interface(), rt, p, depth+1)))
	case reflect.Struct:
		if !typeMayHold(rv.Type(), 0) {
			return
		}
		for i := 0; i < rv.NumField(); i++ {
			if rv.Type().Field(i).PkgPath != "" {
				continue
			}
			rebindValue(rv.Field(i), rt, p, depth+1)
		}
	case reflect.Slice, reflect.Array:
		if !typeMayHold(rv.Type().Elem(), 0) {
			return
		}
		for i := 0; i < rv.Len(); i++ {
			rebindValue(rv.Index(i), rt, p, depth+1)
		}
	case reflect.Map:
		if rv.IsNil() || !typeMayHold(rv.Type().Elem(), 0) {
			return
		}
		iter := rv.MapRange()
		type kv struct{ k, v reflect.Value }
		var updates []kv
		for iter.Next() {
			nv := rebindPure(iter.Value().Interface(), rt, p, depth+1)
			updates = append(updates, kv{iter.Key(), reflect.ValueOf(nv)})
		}
		for _, u := range updates {
			rv.SetMapIndex(u.k, u.v)
		}
	}
}
