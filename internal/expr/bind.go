package expr

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
)

// Guard is a condition bound by Bind to one receiver type and argument
// list: self is the receiving object, args the call's arguments.
type Guard func(self any, args []any) (bool, error)

// Bind resolves the expression's names once against a typed environment —
// self, a struct type (or pointer to one), and a method's arguments, visible
// under argNames and as arg0, arg1, ... — and returns the condition as a
// Guard. It fails when the expression reads a field self does not have or
// cannot export, or a name that is no argument, so that such a condition is
// rejected where it is declared instead of at its first evaluation.
//
// Every self.<field> of a predeclared numeric, bool or string type is bound
// to its field index, every argument to its position, and the Guard then
// evaluates without name lookups, boxing or allocation. An expression Bind
// cannot type (membership, indexing, a call, a field or argument of any other
// type) is evaluated by the interpreter as a whole, and so is a single call
// the bound form does not cover (a receiver of another type, an argument
// that is no scalar, an evaluation error): the Guard's answer and error are
// always the interpreter's.
func (e *Expr) Bind(self reflect.Type, argNames []string, argTypes []reflect.Type) (Guard, error) {
	for self != nil && self.Kind() == reflect.Ptr {
		self = self.Elem()
	}
	if self == nil || self.Kind() != reflect.Struct {
		return nil, fmt.Errorf("expr %q: cannot bind self to %v, need a struct", e.src, self)
	}
	b := &binder{self: self, names: argNames, types: argTypes}
	if err := b.check(e.root); err != nil {
		return nil, fmt.Errorf("expr %q: %w", e.src, err)
	}
	interpret := func(recv any, args []any) (bool, error) {
		return e.EvalBool(guardEnv{self: recv, args: args, names: argNames})
	}
	bound := b.compile(e.root)
	if bound == nil {
		return interpret, nil
	}
	ptr := reflect.PointerTo(self)
	return func(recv any, args []any) (bool, error) {
		if reflect.TypeOf(recv) == ptr {
			if rv := reflect.ValueOf(recv); !rv.IsNil() {
				if v, ok := bound(rv.Elem(), args); ok {
					return v.truthy(), nil
				}
			}
		}
		return interpret(recv, args)
	}, nil
}

// guardEnv is the environment of a Guard as the interpreter sees it.
type guardEnv struct {
	self  any
	args  []any
	names []string
}

func (e guardEnv) Lookup(name string) (any, bool) {
	if name == "self" {
		return e.self, true
	}
	if i, ok := argPos(name, e.names, len(e.args)); ok {
		return e.args[i], true
	}
	return nil, false
}

// argPos resolves a free name to the position of one of nargs arguments: a
// name from names, or the positional form argN.
func argPos(name string, names []string, nargs int) (int, bool) {
	for i, n := range names {
		if n == name && i < nargs {
			return i, true
		}
	}
	if digits, ok := strings.CutPrefix(name, "arg"); ok {
		if k, err := strconv.Atoi(digits); err == nil && k >= 0 && k < nargs {
			return k, true
		}
	}
	return 0, false
}

// ---- bound values ----

// val is a scalar during bound evaluation. Bools are the ints 0 and 1, which
// is what the interpreter's asNumber makes of them wherever the two could be
// told apart (comparison, arithmetic, truthiness). It is kept to four words
// so that the compiler passes it between the bound closures in registers.
type val struct {
	k kind
	n uint64 // the int64, or the bits of the float64
	s string
}

type kind uint8

const (
	kNil kind = iota
	kInt
	kFloat
	kStr
)

func intVal(i int64) val     { return val{k: kInt, n: uint64(i)} }
func floatVal(f float64) val { return val{k: kFloat, n: math.Float64bits(f)} }

func (v val) int() int64     { return int64(v.n) }
func (v val) float() float64 { return math.Float64frombits(v.n) }

func boolVal(b bool) val {
	if b {
		return intVal(1)
	}
	return intVal(0)
}

func (v val) truthy() bool {
	switch v.k {
	case kInt:
		return v.int() != 0
	case kFloat:
		return v.float() != 0
	case kStr:
		return len(v.s) > 0
	}
	return false
}

// num is v as the float the interpreter compares numbers in.
func (v val) num() float64 {
	if v.k == kInt {
		return float64(v.int())
	}
	return v.float()
}

// scalarOf converts the dynamic types asNumber knows, strings and nil.
func scalarOf(a any) (val, bool) {
	switch x := a.(type) {
	case nil:
		return val{}, true
	case int:
		return intVal(int64(x)), true
	case int64:
		return intVal(x), true
	case float64:
		return floatVal(x), true
	case bool:
		return boolVal(x), true
	case string:
		return val{k: kStr, s: x}, true
	case int8:
		return intVal(int64(x)), true
	case int16:
		return intVal(int64(x)), true
	case int32:
		return intVal(int64(x)), true
	case uint:
		return intVal(int64(x)), true
	case uint8:
		return intVal(int64(x)), true
	case uint16:
		return intVal(int64(x)), true
	case uint32:
		return intVal(int64(x)), true
	case uint64:
		return intVal(int64(x)), true
	case float32:
		return floatVal(float64(x)), true
	}
	return val{}, false
}

// scalarType reports whether values of static type t are always scalarOf's:
// the predeclared types only, because the interpreter does not treat a named
// numeric type as a number.
func scalarType(t reflect.Type) bool {
	if t.PkgPath() != "" {
		return false
	}
	switch t.Kind() {
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return true
	}
	return false
}

// ---- binder ----

// boundFn evaluates one bound node; ok is false when this call has to go to
// the interpreter instead.
type boundFn func(self reflect.Value, args []any) (v val, ok bool)

type binder struct {
	self  reflect.Type // struct type of the receiver
	names []string
	types []reflect.Type
}

// check reports the names in n that can never resolve.
func (b *binder) check(n node) (err error) {
	walk(n, func(n node) {
		if err != nil {
			return
		}
		switch t := n.(type) {
		case *identNode:
			if _, ok := argPos(t.name, b.names, len(b.types)); !ok && t.name != "self" {
				err = fmt.Errorf("name %q is not defined: it is neither self nor one of the %d arguments %q", t.name, len(b.types), b.names)
			}
		case *attrNode:
			if isSelf(t.x) {
				err = fieldOf(b.self, t.name).err
			}
		}
	})
	return err
}

func isSelf(n node) bool {
	id, ok := n.(*identNode)
	return ok && id.name == "self"
}

// compile returns n's bound form, or nil if n cannot be typed statically.
func (b *binder) compile(n node) boundFn {
	switch t := n.(type) {
	case *litNode:
		v, ok := scalarOf(t.v)
		if !ok {
			return nil
		}
		return func(reflect.Value, []any) (val, bool) { return v, true }
	case *identNode:
		i, ok := argPos(t.name, b.names, len(b.types))
		if !ok || !(scalarType(b.types[i]) || b.types[i].Kind() == reflect.Interface) {
			return nil
		}
		return func(_ reflect.Value, args []any) (val, bool) {
			if i >= len(args) {
				return val{}, false
			}
			return scalarOf(args[i])
		}
	case *attrNode:
		if !isSelf(t.x) {
			return nil
		}
		return fieldLoader(fieldOf(b.self, t.name))
	case *notNode:
		x := b.compile(t.x)
		if x == nil {
			return nil
		}
		return func(self reflect.Value, args []any) (val, bool) {
			v, ok := x(self, args)
			return boolVal(!v.truthy()), ok
		}
	case *negNode:
		x := b.compile(t.x)
		if x == nil {
			return nil
		}
		return func(self reflect.Value, args []any) (val, bool) {
			v, ok := x(self, args)
			switch v.k {
			case kInt:
				return intVal(-v.int()), ok
			case kFloat:
				return floatVal(-v.float()), ok
			}
			return val{}, false
		}
	case *binNode:
		l, r := b.compile(t.l), b.compile(t.r)
		if l == nil || r == nil {
			return nil
		}
		switch t.op {
		case "and", "or":
			stopOn := t.op == "or"
			return func(self reflect.Value, args []any) (val, bool) {
				lv, ok := l(self, args)
				if !ok || lv.truthy() == stopOn {
					return lv, ok
				}
				return r(self, args)
			}
		}
		op := t.op
		return func(self reflect.Value, args []any) (val, bool) {
			lv, ok := l(self, args)
			if !ok {
				return val{}, false
			}
			rv, ok := r(self, args)
			if !ok {
				return val{}, false
			}
			return arithVals(op, lv, rv)
		}
	case *cmpNode:
		operands := make([]boundFn, len(t.operands))
		for i, o := range t.operands {
			if operands[i] = b.compile(o); operands[i] == nil {
				return nil
			}
		}
		ops := make([]uint8, len(t.ops)) // the orderings satisfying each operator
		for i, op := range t.ops {
			if ops[i] = cmpOps[op]; ops[i] == 0 { // "in", "not in"
				return nil
			}
		}
		return func(self reflect.Value, args []any) (val, bool) {
			prev, ok := operands[0](self, args)
			if !ok {
				return val{}, false
			}
			for i, sat := range ops {
				next, ok := operands[i+1](self, args)
				if !ok {
					return val{}, false
				}
				holds, ok := cmpVals(sat, prev, next)
				if !ok || !holds {
					return boolVal(false), ok
				}
				prev = next
			}
			return boolVal(true), true
		}
	}
	return nil // indexing, calls
}

// fieldLoader reads the scalar field ref of the receiver struct.
func fieldLoader(ref *fieldRef) boundFn {
	if ref.err != nil || !scalarType(ref.typ) {
		return nil
	}
	index, kind := ref.index, ref.typ.Kind()
	return func(self reflect.Value, _ []any) (val, bool) {
		// Err: a nil embedded pointer on the way to a promoted field.
		f, err := self.FieldByIndexErr(index)
		if err != nil {
			return val{}, false
		}
		switch kind {
		case reflect.Bool:
			return boolVal(f.Bool()), true
		case reflect.String:
			return val{k: kStr, s: f.String()}, true
		case reflect.Float32, reflect.Float64:
			return floatVal(f.Float()), true
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			return intVal(int64(f.Uint())), true
		}
		return intVal(f.Int()), true
	}
}

// arithVals is the interpreter's arith on two numbers; string operands and
// errors are left to the interpreter.
func arithVals(op string, l, r val) (val, bool) {
	if l.k == kInt && r.k == kInt {
		v, err := arithInt(op, l.int(), r.int())
		return v, err == nil
	}
	if (l.k != kInt && l.k != kFloat) || (r.k != kInt && r.k != kFloat) {
		return val{}, false
	}
	f, err := arithFloat(op, l.num(), r.num())
	return floatVal(f), err == nil
}

// cmpVals is the interpreter's compare on two scalars, for an operator
// satisfied by the orderings sat; what compare rejects (ordering None, or a
// string against a number) is left to it.
func cmpVals(sat uint8, l, r val) (holds, ok bool) {
	switch {
	case l.k == kNil || r.k == kNil, (l.k == kStr) != (r.k == kStr):
		// None equals only None and a string never equals a number: "==" and
		// "!=" have an answer, the ordering operators are errors.
		if sat != satEq && sat != satNe {
			return false, false
		}
		equal := l.k == kNil && r.k == kNil
		return equal == (sat == satEq), true
	case l.k == kStr:
		return sat&ordering(l.s, r.s) != 0, true
	}
	return sat&ordering(l.num(), r.num()) != 0, true
}
