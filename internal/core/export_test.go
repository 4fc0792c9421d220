package core

import "reflect"

// BoundMethod is one entry-method handle bound in the running binary, with
// its wire call, for the external wire-identity test.
type BoundMethod struct {
	Chare  reflect.Type // the chare struct type
	Method string
	// Wire runs the handle's wire call on data with a stand-in for the
	// method that records the parameters it receives (called reports
	// whether it ran); nil unless the handle reads its parameters off the
	// encoded list.
	Wire func(data []byte) (params []any, called, ok bool)
}

// BoundMethods lists every handle bound in this binary that names a method
// of its chare type (the closure and foreign-method fixtures of
// handles_test.go do not).
func BoundMethods() []BoundMethod {
	var out []BoundMethod
	bindings.Range(func(k, v any) bool {
		for _, e := range v.(*binding).ems {
			if !e.method {
				continue
			}
			var wire func([]byte) ([]any, bool, bool)
			if e.wire != nil {
				wire = func(data []byte) (params []any, called, ok bool) {
					ft := reflect.TypeOf(e.fn)
					rec := reflect.MakeFunc(ft, func(in []reflect.Value) []reflect.Value {
						called, params = true, []any{}
						for _, v := range in[1:] {
							params = append(params, v.Interface())
						}
						out := make([]reflect.Value, ft.NumOut())
						for i := range out {
							out[i] = reflect.Zero(ft.Out(i))
						}
						return out
					})
					_, ok = e.wire(rec.Interface(), reflect.New(k.(reflect.Type)).Interface(), data, nil)
					return params, called, ok
				}
			}
			out = append(out, BoundMethod{
				Wire:   wire,
				Chare:  k.(reflect.Type),
				Method: e.name,
			})
		}
		return true
	})
	return out
}
