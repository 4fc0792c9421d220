package core

import "reflect"

// BoundMethod is one entry-method handle bound in the running binary, with
// its typed codecs, for the external wire-identity test.
type BoundMethod struct {
	Chare  reflect.Type // the chare struct type
	Method string
	Enc    func(dst []byte, args []any) ([]byte, bool)
	Dec    func(dst []any, data []byte, alias bool) ([]any, int, bool)
}

// BoundMethods lists every handle bound in this binary that names a method
// of its chare type (the closure and foreign-method fixtures of
// handles_test.go do not).
func BoundMethods() []BoundMethod {
	var out []BoundMethod
	bindings.Range(func(k, v any) bool {
		b := v.(*binding)
		for i, e := range b.ems {
			if !e.method {
				continue
			}
			id := int32(i)
			out = append(out, BoundMethod{
				Chare:  k.(reflect.Type),
				Method: e.name,
				Enc: func(dst []byte, args []any) ([]byte, bool) {
					return b.encodeArgs(dst, id, args)
				},
				Dec: func(dst []any, data []byte, alias bool) ([]any, int, bool) {
					return b.decodeArgs(dst, id, data, alias)
				},
			})
		}
		return true
	})
	return out
}
