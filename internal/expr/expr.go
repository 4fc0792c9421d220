// Package expr implements a small expression language used by the charmgo
// runtime to evaluate "when" and "wait" conditions, mirroring the string
// conditions of the CharmPy programming model (e.g. @when('self.iter == iter')).
//
// The language is a Python-flavoured boolean/arithmetic expression grammar:
//
//	or-expr    = and-expr { "or" and-expr }
//	and-expr   = not-expr { "and" not-expr }
//	not-expr   = "not" not-expr | comparison
//	comparison = sum { ("=="|"!="|"<"|"<="|">"|">=") sum }   (chained, Python style)
//	sum        = term { ("+"|"-") term }
//	term       = unary { ("*"|"/"|"//"|"%") unary }
//	unary      = "-" unary | postfix
//	postfix    = atom { "." ident | "[" expr "]" }
//	atom       = number | string | ident | "True" | "False" | "None"
//	           | "len" "(" expr ")" | "abs" "(" expr ")" | "(" expr ")"
//
// Names are resolved through an Env. The special name "self" conventionally
// resolves to the receiving chare; attribute access on Go structs maps
// snake_case Python-style names to exported Go fields (msg_count -> MsgCount).
package expr

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
)

// Env resolves free variable names during evaluation.
type Env interface {
	// Lookup returns the value bound to name and whether it exists.
	Lookup(name string) (any, bool)
}

// MapEnv is a convenience Env backed by a map.
type MapEnv map[string]any

// Lookup implements Env.
func (m MapEnv) Lookup(name string) (any, bool) {
	v, ok := m[name]
	return v, ok
}

// Expr is a compiled expression, safe for concurrent evaluation.
type Expr struct {
	src  string
	root node
}

// Compile parses src and returns a reusable compiled expression.
func Compile(src string) (*Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, fmt.Errorf("expr %q: %w", src, err)
	}
	p := &parser{toks: toks}
	n, err := p.parseOr()
	if err != nil {
		return nil, fmt.Errorf("expr %q: %w", src, err)
	}
	if p.pos != len(p.toks) {
		return nil, fmt.Errorf("expr %q: unexpected trailing token %q", src, p.toks[p.pos].text)
	}
	return &Expr{src: src, root: n}, nil
}

// EvalBool evaluates the expression and converts the result to a boolean
// using Python-style truthiness.
func (e *Expr) EvalBool(env Env) (bool, error) {
	v, err := e.root.eval(env)
	if err != nil {
		return false, err
	}
	return Truthy(v), nil
}

// walk calls f on n and every node below it.
func walk(n node, f func(node)) {
	f(n)
	switch t := n.(type) {
	case *binNode:
		walk(t.l, f)
		walk(t.r, f)
	case *cmpNode:
		for _, o := range t.operands {
			walk(o, f)
		}
	case *notNode:
		walk(t.x, f)
	case *negNode:
		walk(t.x, f)
	case *attrNode:
		walk(t.x, f)
	case *indexNode:
		walk(t.x, f)
		walk(t.idx, f)
	case *callNode:
		walk(t.arg, f)
	}
}

// Truthy reports Python-style truthiness of v: nil and zero values of
// numbers/strings/empty collections are false, everything else true.
func Truthy(v any) bool {
	if v == nil {
		return false
	}
	switch x := v.(type) {
	case bool:
		return x
	case string:
		return len(x) > 0
	}
	rv := reflect.ValueOf(v)
	switch rv.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return rv.Int() != 0
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return rv.Uint() != 0
	case reflect.Float32, reflect.Float64:
		return rv.Float() != 0
	case reflect.Slice, reflect.Map, reflect.Array, reflect.Chan:
		return rv.Len() > 0
	case reflect.Ptr, reflect.Interface:
		return !rv.IsNil()
	}
	return true
}

// ---- lexer ----

type tokKind int

const (
	tIdent tokKind = iota
	tInt
	tFloat
	tStr
	tOp
)

type token struct {
	kind tokKind
	text string
}

func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case isIdentStart(c):
			j := i + 1
			for j < len(src) && isIdentPart(src[j]) {
				j++
			}
			toks = append(toks, token{tIdent, src[i:j]})
			i = j
		case c >= '0' && c <= '9' || (c == '.' && i+1 < len(src) && src[i+1] >= '0' && src[i+1] <= '9'):
			j := i
			isFloat := false
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.' || src[j] == 'e' || src[j] == 'E' ||
				((src[j] == '+' || src[j] == '-') && j > i && (src[j-1] == 'e' || src[j-1] == 'E'))) {
				if src[j] == '.' || src[j] == 'e' || src[j] == 'E' {
					isFloat = true
				}
				j++
			}
			k := tInt
			if isFloat {
				k = tFloat
			}
			toks = append(toks, token{k, src[i:j]})
			i = j
		case c == '\'' || c == '"':
			quote := c
			j := i + 1
			var sb strings.Builder
			for j < len(src) && src[j] != quote {
				if src[j] == '\\' && j+1 < len(src) {
					j++
					switch src[j] {
					case 'n':
						sb.WriteByte('\n')
					case 't':
						sb.WriteByte('\t')
					case '\\':
						sb.WriteByte('\\')
					case quote:
						sb.WriteByte(quote)
					default:
						sb.WriteByte(src[j])
					}
				} else {
					sb.WriteByte(src[j])
				}
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("unterminated string literal")
			}
			toks = append(toks, token{tStr, sb.String()})
			i = j + 1
		default:
			// multi-char operators first
			two := ""
			if i+1 < len(src) {
				two = src[i : i+2]
			}
			switch two {
			case "==", "!=", "<=", ">=", "//":
				toks = append(toks, token{tOp, two})
				i += 2
				continue
			}
			switch c {
			case '<', '>', '+', '-', '*', '/', '%', '(', ')', '[', ']', '.', ',':
				toks = append(toks, token{tOp, string(c)})
				i++
			default:
				return nil, fmt.Errorf("unexpected character %q", string(c))
			}
		}
	}
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool { return isIdentStart(c) || c >= '0' && c <= '9' }

// ---- parser ----

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() (token, bool) {
	if p.pos < len(p.toks) {
		return p.toks[p.pos], true
	}
	return token{}, false
}

func (p *parser) accept(kind tokKind, text string) bool {
	if t, ok := p.peek(); ok && t.kind == kind && t.text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text string) error {
	if p.accept(kind, text) {
		return nil
	}
	if t, ok := p.peek(); ok {
		return fmt.Errorf("expected %q, found %q", text, t.text)
	}
	return fmt.Errorf("expected %q, found end of expression", text)
}

func (p *parser) parseOr() (node, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tIdent, "or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &binNode{op: "or", l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (node, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tIdent, "and") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &binNode{op: "and", l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseNot() (node, error) {
	if p.accept(tIdent, "not") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &notNode{x: x}, nil
	}
	return p.parseCmp()
}

// How two ordered values can stand to each other; ordNone is a NaN on
// either side.
const (
	ordLess uint8 = 1 << iota
	ordEqual
	ordGreater
	ordNone

	satEq = ordEqual
	satNe = ordLess | ordGreater | ordNone
)

// cmpOps maps each comparison operator to the orderings that satisfy it.
var cmpOps = map[string]uint8{
	"==": satEq, "!=": satNe,
	"<": ordLess, "<=": ordLess | ordEqual,
	">": ordGreater, ">=": ordGreater | ordEqual,
}

func ordering[T string | float64](l, r T) uint8 {
	switch {
	case l < r:
		return ordLess
	case l == r:
		return ordEqual
	case l > r:
		return ordGreater
	}
	return ordNone
}

// acceptCmpOp consumes a comparison operator, including Python's "in" and
// "not in" membership tests; it returns the operator and whether one was
// present.
func (p *parser) acceptCmpOp() (string, bool) {
	t, ok := p.peek()
	if !ok {
		return "", false
	}
	if t.kind == tOp && cmpOps[t.text] != 0 {
		p.pos++
		return t.text, true
	}
	if t.kind == tIdent && t.text == "in" {
		p.pos++
		return "in", true
	}
	if t.kind == tIdent && t.text == "not" {
		// lookahead for "not in" without consuming a bare "not"
		if p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tIdent && p.toks[p.pos+1].text == "in" {
			p.pos += 2
			return "not in", true
		}
	}
	return "", false
}

func (p *parser) parseCmp() (node, error) {
	first, err := p.parseSum()
	if err != nil {
		return nil, err
	}
	var ops []string
	operands := []node{first}
	for {
		op, ok := p.acceptCmpOp()
		if !ok {
			break
		}
		next, err := p.parseSum()
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
		operands = append(operands, next)
	}
	if len(ops) == 0 {
		return first, nil
	}
	return &cmpNode{ops: ops, operands: operands}, nil
}

func (p *parser) parseSum() (node, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		if p.accept(tOp, "+") {
			r, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			l = &binNode{op: "+", l: l, r: r}
		} else if p.accept(tOp, "-") {
			r, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			l = &binNode{op: "-", l: l, r: r}
		} else {
			return l, nil
		}
	}
}

func (p *parser) parseTerm() (node, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t, ok := p.peek()
		if !ok || t.kind != tOp || (t.text != "*" && t.text != "/" && t.text != "//" && t.text != "%") {
			return l, nil
		}
		p.pos++
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &binNode{op: t.text, l: l, r: r}
	}
}

func (p *parser) parseUnary() (node, error) {
	if p.accept(tOp, "-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &negNode{x: x}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (node, error) {
	x, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		if p.accept(tOp, ".") {
			t, ok := p.peek()
			if !ok || t.kind != tIdent {
				return nil, fmt.Errorf("expected attribute name after '.'")
			}
			p.pos++
			x = &attrNode{x: x, name: t.text}
		} else if p.accept(tOp, "[") {
			idx, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tOp, "]"); err != nil {
				return nil, err
			}
			x = &indexNode{x: x, idx: idx}
		} else {
			return x, nil
		}
	}
}

func (p *parser) parseAtom() (node, error) {
	t, ok := p.peek()
	if !ok {
		return nil, fmt.Errorf("unexpected end of expression")
	}
	switch t.kind {
	case tInt:
		p.pos++
		var v int64
		if _, err := fmt.Sscanf(t.text, "%d", &v); err != nil {
			return nil, fmt.Errorf("bad integer literal %q", t.text)
		}
		return &litNode{v: v}, nil
	case tFloat:
		p.pos++
		var v float64
		if _, err := fmt.Sscanf(t.text, "%g", &v); err != nil {
			return nil, fmt.Errorf("bad float literal %q", t.text)
		}
		return &litNode{v: v}, nil
	case tStr:
		p.pos++
		return &litNode{v: t.text}, nil
	case tIdent:
		switch t.text {
		case "True":
			p.pos++
			return &litNode{v: true}, nil
		case "False":
			p.pos++
			return &litNode{v: false}, nil
		case "None":
			p.pos++
			return &litNode{v: nil}, nil
		case "len", "abs":
			// only treat as builtin when followed by '('
			if p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tOp && p.toks[p.pos+1].text == "(" {
				fn := t.text
				p.pos += 2
				arg, err := p.parseOr()
				if err != nil {
					return nil, err
				}
				if err := p.expect(tOp, ")"); err != nil {
					return nil, err
				}
				return &callNode{fn: fn, arg: arg}, nil
			}
		}
		p.pos++
		return &identNode{name: t.text}, nil
	}
	if t.kind == tOp && t.text == "(" {
		p.pos++
		x, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tOp, ")"); err != nil {
			return nil, err
		}
		return x, nil
	}
	return nil, fmt.Errorf("unexpected token %q", t.text)
}

// ---- nodes ----

type node interface {
	eval(env Env) (any, error)
}

type litNode struct{ v any }

func (n *litNode) eval(Env) (any, error) { return n.v, nil }

type identNode struct{ name string }

func (n *identNode) eval(env Env) (any, error) {
	v, ok := env.Lookup(n.name)
	if !ok {
		return nil, fmt.Errorf("name %q is not defined", n.name)
	}
	return v, nil
}

type notNode struct{ x node }

func (n *notNode) eval(env Env) (any, error) {
	v, err := n.x.eval(env)
	if err != nil {
		return nil, err
	}
	return !Truthy(v), nil
}

type negNode struct{ x node }

func (n *negNode) eval(env Env) (any, error) {
	v, err := n.x.eval(env)
	if err != nil {
		return nil, err
	}
	switch num := asNumber(v).(type) {
	case int64:
		return -num, nil
	case float64:
		return -num, nil
	}
	return nil, fmt.Errorf("cannot negate %T", v)
}

type binNode struct {
	op   string
	l, r node
}

func (n *binNode) eval(env Env) (any, error) {
	switch n.op {
	case "and":
		lv, err := n.l.eval(env)
		if err != nil {
			return nil, err
		}
		if !Truthy(lv) {
			return lv, nil
		}
		return n.r.eval(env)
	case "or":
		lv, err := n.l.eval(env)
		if err != nil {
			return nil, err
		}
		if Truthy(lv) {
			return lv, nil
		}
		return n.r.eval(env)
	}
	lv, err := n.l.eval(env)
	if err != nil {
		return nil, err
	}
	rv, err := n.r.eval(env)
	if err != nil {
		return nil, err
	}
	return arith(n.op, lv, rv)
}

type cmpNode struct {
	ops      []string
	operands []node
}

func (n *cmpNode) eval(env Env) (any, error) {
	prev, err := n.operands[0].eval(env)
	if err != nil {
		return nil, err
	}
	for i, op := range n.ops {
		next, err := n.operands[i+1].eval(env)
		if err != nil {
			return nil, err
		}
		ok, err := compare(op, prev, next)
		if err != nil {
			return nil, err
		}
		if !ok {
			return false, nil
		}
		prev = next
	}
	return true, nil
}

type attrNode struct {
	x    node
	name string
}

func (n *attrNode) eval(env Env) (any, error) {
	v, err := n.x.eval(env)
	if err != nil {
		return nil, err
	}
	return Attr(v, n.name)
}

type indexNode struct {
	x, idx node
}

func (n *indexNode) eval(env Env) (any, error) {
	xv, err := n.x.eval(env)
	if err != nil {
		return nil, err
	}
	iv, err := n.idx.eval(env)
	if err != nil {
		return nil, err
	}
	rv := reflect.ValueOf(xv)
	for rv.Kind() == reflect.Ptr || rv.Kind() == reflect.Interface {
		rv = rv.Elem()
	}
	switch rv.Kind() {
	case reflect.Slice, reflect.Array, reflect.String:
		idx, ok := asNumber(iv).(int64)
		if !ok {
			return nil, fmt.Errorf("index must be an integer, got %T", iv)
		}
		if idx < 0 {
			idx += int64(rv.Len())
		}
		if idx < 0 || idx >= int64(rv.Len()) {
			return nil, fmt.Errorf("index %d out of range (len %d)", idx, rv.Len())
		}
		if rv.Kind() == reflect.String {
			return rv.String()[idx : idx+1], nil
		}
		return rv.Index(int(idx)).Interface(), nil
	case reflect.Map:
		kv := reflect.ValueOf(iv)
		if !kv.Type().AssignableTo(rv.Type().Key()) {
			if kv.Type().ConvertibleTo(rv.Type().Key()) {
				kv = kv.Convert(rv.Type().Key())
			} else {
				return nil, fmt.Errorf("bad map key type %T", iv)
			}
		}
		out := rv.MapIndex(kv)
		if !out.IsValid() {
			return nil, fmt.Errorf("map key %v not found", iv)
		}
		return out.Interface(), nil
	}
	return nil, fmt.Errorf("cannot index value of type %T", xv)
}

type callNode struct {
	fn  string
	arg node
}

func (n *callNode) eval(env Env) (any, error) {
	v, err := n.arg.eval(env)
	if err != nil {
		return nil, err
	}
	switch n.fn {
	case "len":
		rv := reflect.ValueOf(v)
		for rv.Kind() == reflect.Ptr || rv.Kind() == reflect.Interface {
			rv = rv.Elem()
		}
		switch rv.Kind() {
		case reflect.Slice, reflect.Array, reflect.Map, reflect.String, reflect.Chan:
			return int64(rv.Len()), nil
		}
		return nil, fmt.Errorf("len() of %T", v)
	case "abs":
		switch num := asNumber(v).(type) {
		case int64:
			if num < 0 {
				return -num, nil
			}
			return num, nil
		case float64:
			return math.Abs(num), nil
		}
		return nil, fmt.Errorf("abs() of %T", v)
	}
	return nil, fmt.Errorf("unknown function %q", n.fn)
}

// Attr resolves attribute name on v: struct fields (with snake_case to
// CamelCase mapping), map[string]X keys, or pointer indirection thereof.
func Attr(v any, name string) (any, error) {
	rv := reflect.ValueOf(v)
	for rv.Kind() == reflect.Ptr || rv.Kind() == reflect.Interface {
		if rv.IsNil() {
			return nil, fmt.Errorf("attribute %q of nil value", name)
		}
		rv = rv.Elem()
	}
	switch rv.Kind() {
	case reflect.Struct:
		ref := fieldOf(rv.Type(), name)
		if ref.err != nil {
			return nil, ref.err
		}
		f, err := rv.FieldByIndexErr(ref.index)
		if err != nil {
			return nil, err
		}
		return f.Interface(), nil
	case reflect.Map:
		if rv.Type().Key().Kind() == reflect.String {
			out := rv.MapIndex(reflect.ValueOf(name))
			if out.IsValid() {
				return out.Interface(), nil
			}
		}
		return nil, fmt.Errorf("map has no key %q", name)
	}
	return nil, fmt.Errorf("cannot access attribute %q on %T", name, v)
}

// fieldRef is one resolved attribute of a struct type: the index path of the
// field (through embedded structs) and its type, or why there is none.
type fieldRef struct {
	index []int
	typ   reflect.Type
	err   error
}

// structFields memoizes the attribute names looked up on one struct type.
type structFields struct {
	mu     sync.RWMutex
	byName map[string]*fieldRef
}

var fieldCache sync.Map // reflect.Type (struct) -> *structFields

// fieldOf resolves attribute name on struct type t — the exact field name
// first, then its snake_case to CamelCase mapping — once per (type, name).
// Bind and the interpreter's Attr both resolve through it, so neither pays
// reflect's breadth-first search of embedded structs per evaluation.
func fieldOf(t reflect.Type, name string) *fieldRef {
	c, ok := fieldCache.Load(t)
	if !ok {
		c, _ = fieldCache.LoadOrStore(t, &structFields{byName: map[string]*fieldRef{}})
	}
	sf := c.(*structFields)
	sf.mu.RLock()
	ref := sf.byName[name]
	sf.mu.RUnlock()
	if ref != nil {
		return ref
	}
	ref = &fieldRef{}
	f, found := t.FieldByName(name)
	if !found {
		f, found = t.FieldByName(snakeToCamel(name))
	}
	switch {
	case !found:
		ref.err = fmt.Errorf("type %s has no field %q (tried %q)", t, name, snakeToCamel(name))
	case !f.IsExported():
		ref.err = fmt.Errorf("field %q of %s is unexported", name, t)
	default:
		ref.index, ref.typ = f.Index, f.Type
	}
	sf.mu.Lock()
	sf.byName[name] = ref
	sf.mu.Unlock()
	return ref
}

// snakeToCamel converts msg_count to MsgCount.
func snakeToCamel(s string) string {
	parts := strings.Split(s, "_")
	var sb strings.Builder
	for _, p := range parts {
		if p == "" {
			continue
		}
		sb.WriteString(strings.ToUpper(p[:1]))
		sb.WriteString(p[1:])
	}
	return sb.String()
}

// ---- numeric and comparison helpers ----

// asNumber normalizes any Go numeric value to int64 or float64;
// other values are returned unchanged.
func asNumber(v any) any {
	switch x := v.(type) {
	case int64, float64:
		return x
	case int:
		return int64(x)
	case int8:
		return int64(x)
	case int16:
		return int64(x)
	case int32:
		return int64(x)
	case uint:
		return int64(x)
	case uint8:
		return int64(x)
	case uint16:
		return int64(x)
	case uint32:
		return int64(x)
	case uint64:
		return int64(x)
	case float32:
		return float64(x)
	case bool:
		if x {
			return int64(1)
		}
		return int64(0)
	}
	return v
}

func arith(op string, l, r any) (any, error) {
	ln, rn := asNumber(l), asNumber(r)
	if ls, ok := ln.(string); ok {
		if rs, ok2 := rn.(string); ok2 && op == "+" {
			return ls + rs, nil
		}
		return nil, fmt.Errorf("unsupported operand %q for strings", op)
	}
	li, lIsInt := ln.(int64)
	ri, rIsInt := rn.(int64)
	if lIsInt && rIsInt {
		v, err := arithInt(op, li, ri)
		if err != nil {
			return nil, err
		}
		if v.k == kFloat {
			return v.float(), nil
		}
		return v.int(), nil
	}
	lf, err := toFloat(ln)
	if err != nil {
		return nil, fmt.Errorf("left operand of %q: %w", op, err)
	}
	rf, err := toFloat(rn)
	if err != nil {
		return nil, fmt.Errorf("right operand of %q: %w", op, err)
	}
	f, err := arithFloat(op, lf, rf)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// arithInt is integer arithmetic; "/" yields a float unless it divides evenly.
func arithInt(op string, li, ri int64) (val, error) {
	switch op {
	case "+":
		return intVal(li + ri), nil
	case "-":
		return intVal(li - ri), nil
	case "*":
		return intVal(li * ri), nil
	case "/":
		if ri == 0 {
			return val{}, fmt.Errorf("division by zero")
		}
		if li%ri == 0 {
			return intVal(li / ri), nil
		}
		return floatVal(float64(li) / float64(ri)), nil
	case "//":
		if ri == 0 {
			return val{}, fmt.Errorf("division by zero")
		}
		return intVal(floorDivInt(li, ri)), nil
	case "%":
		if ri == 0 {
			return val{}, fmt.Errorf("modulo by zero")
		}
		// Python-style modulo: result has the sign of the divisor.
		m := li % ri
		if m != 0 && (m < 0) != (ri < 0) {
			m += ri
		}
		return intVal(m), nil
	}
	return val{}, fmt.Errorf("unknown operator %q", op)
}

func arithFloat(op string, lf, rf float64) (float64, error) {
	switch op {
	case "+":
		return lf + rf, nil
	case "-":
		return lf - rf, nil
	case "*":
		return lf * rf, nil
	case "/":
		if rf == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return lf / rf, nil
	case "//":
		if rf == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return math.Floor(lf / rf), nil
	case "%":
		if rf == 0 {
			return 0, fmt.Errorf("modulo by zero")
		}
		m := math.Mod(lf, rf)
		if m != 0 && (m < 0) != (rf < 0) {
			m += rf
		}
		return m, nil
	}
	return 0, fmt.Errorf("unknown operator %q", op)
}

func floorDivInt(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func toFloat(v any) (float64, error) {
	switch x := v.(type) {
	case int64:
		return float64(x), nil
	case float64:
		return x, nil
	}
	return 0, fmt.Errorf("not a number: %T", v)
}

func compare(op string, l, r any) (bool, error) {
	if op == "in" || op == "not in" {
		ok, err := contains(r, l)
		if err != nil {
			return false, err
		}
		if op == "not in" {
			return !ok, nil
		}
		return ok, nil
	}
	ln, rn := asNumber(l), asNumber(r)
	if ln == nil || rn == nil {
		switch op {
		case "==":
			return ln == nil && rn == nil, nil
		case "!=":
			return !(ln == nil && rn == nil), nil
		}
		return false, fmt.Errorf("cannot order None values")
	}
	if ls, ok := ln.(string); ok {
		rs, ok2 := rn.(string)
		if !ok2 {
			if op == "==" {
				return false, nil
			}
			if op == "!=" {
				return true, nil
			}
			return false, fmt.Errorf("cannot compare string with %T", r)
		}
		return cmpOrdered(op, ls, rs)
	}
	lf, lok := toFloatOK(ln)
	rf, rok := toFloatOK(rn)
	if !lok || !rok {
		// fall back to deep equality for non-numeric types
		switch op {
		case "==":
			return reflect.DeepEqual(l, r), nil
		case "!=":
			return !reflect.DeepEqual(l, r), nil
		}
		return false, fmt.Errorf("cannot order values of type %T and %T", l, r)
	}
	return cmpOrdered(op, lf, rf)
}

// cmpOrdered applies a comparison operator to two strings or two floats.
func cmpOrdered[T string | float64](op string, l, r T) (bool, error) {
	sat, ok := cmpOps[op]
	if !ok {
		return false, fmt.Errorf("unknown comparison %q", op)
	}
	return sat&ordering(l, r) != 0, nil
}

func toFloatOK(v any) (float64, bool) {
	f, err := toFloat(v)
	return f, err == nil
}

// contains implements Python membership: substring for strings, element for
// slices/arrays (numeric-loose equality), key for maps.
func contains(container, item any) (bool, error) {
	if cs, ok := container.(string); ok {
		is, ok := item.(string)
		if !ok {
			return false, fmt.Errorf("'in <string>' requires a string, got %T", item)
		}
		return strings.Contains(cs, is), nil
	}
	rv := reflect.ValueOf(container)
	for rv.Kind() == reflect.Ptr || rv.Kind() == reflect.Interface {
		if rv.IsNil() {
			return false, nil
		}
		rv = rv.Elem()
	}
	switch rv.Kind() {
	case reflect.Slice, reflect.Array:
		for i := 0; i < rv.Len(); i++ {
			eq, err := compare("==", item, rv.Index(i).Interface())
			if err == nil && eq {
				return true, nil
			}
		}
		return false, nil
	case reflect.Map:
		kv := reflect.ValueOf(item)
		if !kv.IsValid() {
			return false, nil
		}
		if kv.Type() != rv.Type().Key() {
			if kv.Type().ConvertibleTo(rv.Type().Key()) {
				kv = kv.Convert(rv.Type().Key())
			} else {
				return false, nil
			}
		}
		return rv.MapIndex(kv).IsValid(), nil
	}
	return false, fmt.Errorf("'in' not supported on %T", container)
}
