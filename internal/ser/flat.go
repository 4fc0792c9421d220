// Flat struct codecs: the reflection-light, gob-free encoding of plain
// struct values. RegisterFlatStruct builds one per eligible struct type
// (every field exported and of a direct-copy type), core's entry-method
// handles ask for one for each struct parameter, and core registers
// hand-written ones for Proxy and Future. Once registered, the generic path
// (AppendArgs/DecodeArgs) routes values of that type through the flat codec
// instead of gob, so typed and generic encoders stay byte-identical on the
// wire and a node with entry-method handles interoperates with one without.
//
// Wire format of a flat value:
//
//	tagFlat, uvarint(len(name)), name, then the struct's fields encoded as an
//	ordinary argument list (uvarint field count + tagged values). Slice-typed
//	fields preserve nil-ness with an explicit tagNil, matching gob's behavior
//	for struct fields.
//
// The type name travels on the wire (like gob's registered names) so decode
// needs no out-of-band id agreement; names are the package import path plus
// the type name, unique within a binary.
package ser

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
)

// tagFlat continues the tag sequence in ser.go (tagGob is 13).
const tagFlat byte = 14

// maxFlatDepth bounds flat-in-flat nesting on decode so a hostile frame
// cannot recurse arbitrarily deep through tiny nested headers.
const maxFlatDepth = 32

// FlatEncoder appends the flat field list (count + tagged fields, *without*
// the tagFlat+name header) for v and reports whether it handled the value.
// On false it must return dst unmodified.
type FlatEncoder func(dst []byte, v any) ([]byte, bool)

// FlatDecoder reads the flat field list from d and returns the decoded value.
// On failure it returns ok=false (d records the detailed error).
type FlatDecoder func(d *Dec) (any, bool)

type flatCodec struct {
	name string
	enc  FlatEncoder
	dec  FlatDecoder  // nil for a RegisterFlatStruct codec
	st   reflect.Type // RegisterFlatStruct's struct type, read by readFlatStruct
}

// flatCodecs is the registry, copied on write: codecs are registered during
// package initialization and read on every flat value, and a plain map
// lets the decoder look a wire name up without allocating a string for it.
type flatCodecs struct {
	byType map[reflect.Type]*flatCodec
	byName map[string]*flatCodec
}

var (
	flatMu  sync.Mutex
	flatReg atomic.Pointer[flatCodecs]
)

func init() { flatReg.Store(&flatCodecs{}) }

// RegisterFlat installs a flat codec for the concrete type of sample under
// the given wire name. Duplicate registration of the same name panics: two
// types colliding on one name could not be told apart on the wire.
func RegisterFlat(name string, sample any, enc FlatEncoder, dec FlatDecoder) {
	registerFlat(&flatCodec{name: name, enc: enc, dec: dec}, sample)
}

func registerFlat(c *flatCodec, sample any) {
	flatMu.Lock()
	defer flatMu.Unlock()
	old := flatReg.Load()
	name := c.name
	if _, dup := old.byName[name]; dup {
		panic(fmt.Sprintf("ser: duplicate flat codec name %q", name))
	}
	next := &flatCodecs{
		byType: make(map[reflect.Type]*flatCodec, len(old.byType)+1),
		byName: make(map[string]*flatCodec, len(old.byName)+1),
	}
	for k, v := range old.byType {
		next.byType[k] = v
	}
	for k, v := range old.byName {
		next.byName[k] = v
	}
	next.byType[reflect.TypeOf(sample)] = c
	next.byName[name] = c
	flatReg.Store(next)
}

// HasFlat reports whether a flat codec is registered for the concrete type
// of v. Exposed for tests and the differential fuzzer.
func HasFlat(v any) bool {
	_, ok := flatReg.Load().byType[reflect.TypeOf(v)]
	return ok
}

// flatFieldTypes is the direct-copy set a struct field must come from for
// RegisterFlatStruct: the scalars and flat slices with their own tags.
var flatFieldTypes = map[reflect.Type]bool{
	reflect.TypeFor[bool](): true, reflect.TypeFor[int](): true,
	reflect.TypeFor[int64](): true, reflect.TypeFor[float64](): true,
	reflect.TypeFor[string](): true, reflect.TypeFor[[]byte](): true,
	reflect.TypeFor[[]float64](): true, reflect.TypeFor[[]float32](): true,
	reflect.TypeFor[[]int64](): true, reflect.TypeFor[[]int32](): true,
	reflect.TypeFor[[]int](): true,
}

// RegisterFlatStruct gives the named struct type t a reflective flat codec
// under the wire name PkgPath.Name, if every field is exported and its type
// is in the direct-copy set (bool, int, int64, float64, string, and slices
// of byte, float64, float32, int64, int32 and int). Fields travel in
// declaration order; slices keep their nil-ness. It reports whether t has a
// flat codec afterwards; any other struct goes through gob.
func RegisterFlatStruct(t reflect.Type) bool {
	if _, ok := flatReg.Load().byType[t]; ok {
		return true
	}
	if t.Kind() != reflect.Struct || t.Name() == "" {
		return false
	}
	n := t.NumField()
	for i := 0; i < n; i++ {
		if f := t.Field(i); !f.IsExported() || !flatFieldTypes[f.Type] {
			return false
		}
	}
	enc := func(dst []byte, v any) ([]byte, bool) {
		rv := reflect.ValueOf(v)
		if rv.Type() != t {
			return dst, false
		}
		dst = AppendCount(dst, n)
		for i := 0; i < n; i++ {
			dst = appendFlatField(dst, rv.Field(i))
		}
		return dst, true
	}
	registerFlat(&flatCodec{name: t.PkgPath() + "." + t.Name(), enc: enc, st: t}, reflect.Zero(t).Interface())
	return true
}

// readFlatStruct is the decoder of RegisterFlatStruct's codec for t. It is
// called directly, not through a func value, so that d stays on its caller's
// stack. The value costs two allocations, reflect.New's and the interface's
// copy of it: without unsafe, reflect can only set the fields of a value it
// has to copy out again.
func readFlatStruct(d *Dec, t reflect.Type) (any, bool) {
	n := t.NumField()
	if d.Count() != n {
		d.Abort(t.Name() + " field count")
		return nil, false
	}
	rv := reflect.New(t).Elem()
	for i := 0; i < n; i++ {
		readFlatField(d, rv.Field(i))
	}
	return rv.Interface(), d.Ok()
}

func appendFlatField(dst []byte, f reflect.Value) []byte {
	switch f.Kind() {
	case reflect.Bool:
		return AppendBool(dst, f.Bool())
	case reflect.Int:
		return AppendInt(dst, int(f.Int()))
	case reflect.Int64:
		return AppendInt64(dst, f.Int())
	case reflect.Float64:
		return AppendFloat64(dst, f.Float())
	case reflect.String:
		return AppendString(dst, f.String())
	}
	switch s := f.Interface().(type) {
	case []byte:
		return AppendBytesOrNil(dst, s)
	case []float64:
		return AppendF64sOrNil(dst, s)
	case []float32:
		return AppendF32sOrNil(dst, s)
	case []int64:
		return AppendI64sOrNil(dst, s)
	case []int32:
		return AppendI32sOrNil(dst, s)
	default:
		return AppendIntsOrNil(dst, s.([]int))
	}
}

func readFlatField(d *Dec, f reflect.Value) {
	switch f.Kind() {
	case reflect.Bool:
		f.SetBool(d.Bool())
	case reflect.Int:
		f.SetInt(int64(d.Int()))
	case reflect.Int64:
		f.SetInt(d.Int64())
	case reflect.Float64:
		f.SetFloat(d.Float64())
	case reflect.String:
		f.SetString(d.Str())
	default:
		var s any
		switch f.Type().Elem().Kind() {
		case reflect.Uint8:
			s = d.BytesOrNil()
		case reflect.Float64:
			s = d.F64sOrNil()
		case reflect.Float32:
			s = d.F32sOrNil()
		case reflect.Int64:
			s = d.I64sOrNil()
		case reflect.Int32:
			s = d.I32sOrNil()
		default:
			s = d.IntsOrNil()
		}
		f.Set(reflect.ValueOf(s))
	}
}

// appendFlat encodes v through its registered flat codec, header included.
// ok=false (no codec, or codec declined) leaves dst unmodified so the caller
// can fall back to gob.
func appendFlat(dst []byte, v any) ([]byte, bool) {
	c, ok := flatReg.Load().byType[reflect.TypeOf(v)]
	if !ok {
		return dst, false
	}
	mark := len(dst)
	dst = append(dst, tagFlat)
	dst = binary.AppendUvarint(dst, uint64(len(c.name)))
	dst = append(dst, c.name...)
	out, ok := c.enc(dst, v)
	if !ok {
		return dst[:mark], false
	}
	return out, true
}

// decodeFlat decodes a flat value; data starts just past the tagFlat byte.
// Returns the value and bytes consumed (excluding the tag byte).
func decodeFlat(data []byte, alias bool, depth int) (any, int, error) {
	if depth > maxFlatDepth {
		return nil, 0, fmt.Errorf("flat value nested deeper than %d", maxFlatDepth)
	}
	l, n := binary.Uvarint(data)
	if n <= 0 || l > uint64(len(data)-n) {
		return nil, 0, fmt.Errorf("bad flat type name length")
	}
	name := data[n : n+int(l)]
	pos := n + int(l)
	c, ok := flatReg.Load().byName[string(name)]
	if !ok {
		return nil, 0, fmt.Errorf("no flat codec registered for %q", name)
	}
	d := Dec{data: data[pos:], alias: alias, depth: depth}
	var v any
	if c.st != nil {
		v, ok = readFlatStruct(&d, c.st)
	} else {
		hd := d // what a func value is handed escapes: only this path pays for it
		v, ok = c.dec(&hd)
		d = hd
	}
	if !ok {
		if d.err == nil {
			d.err = fmt.Errorf("flat decode of %q failed", name)
		}
		return nil, 0, fmt.Errorf("flat %q: %w", name, d.err)
	}
	return v, pos + d.pos, nil
}

// ---------------------------------------------------------------------------
// Typed appenders. Each writes exactly the bytes appendOne writes for the
// same value, so core's typed entry-method encoders are byte-identical with the
// generic AppendArgs path. AppendCount writes the leading argument/field
// count.
// ---------------------------------------------------------------------------

// AppendCount appends the uvarint argument (or flat field) count.
func AppendCount(dst []byte, n int) []byte {
	return binary.AppendUvarint(dst, uint64(n))
}

// AppendNil appends an explicit nil argument.
func AppendNil(dst []byte) []byte { return append(dst, tagNil) }

// AppendBool appends a bool argument.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, tagTrue)
	}
	return append(dst, tagFalse)
}

// AppendInt appends an int argument.
func AppendInt(dst []byte, v int) []byte {
	dst = append(dst, tagInt)
	return binary.AppendVarint(dst, int64(v))
}

// AppendInt64 appends an int64 argument.
func AppendInt64(dst []byte, v int64) []byte {
	dst = append(dst, tagInt64)
	return binary.AppendVarint(dst, v)
}

// AppendFloat64 appends a float64 argument.
func AppendFloat64(dst []byte, v float64) []byte {
	dst = append(dst, tagFloat64)
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendString appends a string argument.
func AppendString(dst []byte, v string) []byte {
	dst = append(dst, tagString)
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	return append(dst, v...)
}

// AppendBytes appends a []byte argument (nil encodes as length 0, like the
// generic path).
func AppendBytes(dst []byte, v []byte) []byte {
	dst = append(dst, tagBytes)
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	return append(dst, v...)
}

// AppendF64s appends a []float64 argument.
func AppendF64s(dst []byte, v []float64) []byte {
	dst = append(dst, tagF64Slice)
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	for _, f := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

// AppendF32s appends a []float32 argument.
func AppendF32s(dst []byte, v []float32) []byte {
	dst = append(dst, tagF32Slice)
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	for _, f := range v {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(f))
	}
	return dst
}

// AppendI64s appends an []int64 argument.
func AppendI64s(dst []byte, v []int64) []byte {
	dst = append(dst, tagI64Slice)
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
	}
	return dst
}

// AppendI32s appends an []int32 argument.
func AppendI32s(dst []byte, v []int32) []byte {
	dst = append(dst, tagI32Slice)
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(x))
	}
	return dst
}

// AppendInts appends an []int argument.
func AppendInts(dst []byte, v []int) []byte {
	dst = append(dst, tagIntSlice)
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
	}
	return dst
}

// AppendAny appends an arbitrary value through the full generic encoder
// (flat registry, then gob). Typed encoders use it for parameter types
// without a specialized appender.
func AppendAny(dst []byte, v any) ([]byte, error) { return appendOne(dst, v) }

// AppendFlatHeader appends the tagFlat marker and type name that precede a
// flat value's field list. Typed encoders write flat values of statically
// known types with it directly, skipping the registry's reflect.TypeOf
// lookup; the bytes are identical to the generic path's.
func AppendFlatHeader(dst []byte, name string) []byte {
	dst = append(dst, tagFlat)
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	return append(dst, name...)
}

// Nil-preserving slice variants, used for flat struct *fields* (gob, which
// flat codecs replace for struct values, distinguishes nil from empty).
// Top-level arguments keep the historical collapse-to-empty encoding.

// AppendBytesOrNil is AppendBytes but encodes a nil slice as tagNil.
func AppendBytesOrNil(dst []byte, v []byte) []byte {
	if v == nil {
		return append(dst, tagNil)
	}
	return AppendBytes(dst, v)
}

// AppendF64sOrNil is AppendF64s but encodes a nil slice as tagNil.
func AppendF64sOrNil(dst []byte, v []float64) []byte {
	if v == nil {
		return append(dst, tagNil)
	}
	return AppendF64s(dst, v)
}

// AppendF32sOrNil is AppendF32s but encodes a nil slice as tagNil.
func AppendF32sOrNil(dst []byte, v []float32) []byte {
	if v == nil {
		return append(dst, tagNil)
	}
	return AppendF32s(dst, v)
}

// AppendI64sOrNil is AppendI64s but encodes a nil slice as tagNil.
func AppendI64sOrNil(dst []byte, v []int64) []byte {
	if v == nil {
		return append(dst, tagNil)
	}
	return AppendI64s(dst, v)
}

// AppendI32sOrNil is AppendI32s but encodes a nil slice as tagNil.
func AppendI32sOrNil(dst []byte, v []int32) []byte {
	if v == nil {
		return append(dst, tagNil)
	}
	return AppendI32s(dst, v)
}

// AppendIntsOrNil is AppendInts but encodes a nil slice as tagNil.
func AppendIntsOrNil(dst []byte, v []int) []byte {
	if v == nil {
		return append(dst, tagNil)
	}
	return AppendInts(dst, v)
}

// ---------------------------------------------------------------------------
// Dec: a typed sequential reader over the argument wire format, for typed
// decoders. On any malformed or type-mismatched input the reader goes sticky-
// bad; the caller checks Ok() once at the end and falls back to the generic
// reflect/gob decoder, which either succeeds (pure type mismatch) or produces
// the authoritative error (corrupt frame).
// ---------------------------------------------------------------------------

// Dec reads an encoded argument list front to back.
type Dec struct {
	data  []byte
	pos   int
	alias bool
	depth int
	err   error
}

// NewDec returns a reader over data. If alias is true, []byte values alias
// the input buffer (see DecodeArgsAlias for the ownership contract).
func NewDec(data []byte, alias bool) Dec { return Dec{data: data, alias: alias} }

// Ok reports whether every read so far succeeded.
func (d *Dec) Ok() bool { return d.err == nil }

// Err returns the first error encountered, if any.
func (d *Dec) Err() error { return d.err }

// Used returns the number of bytes consumed so far.
func (d *Dec) Used() int { return d.pos }

func (d *Dec) fail(format string, a ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, a...)
	}
}

// Count reads the leading uvarint argument/field count. Returns -1 on error.
func (d *Dec) Count() int {
	if d.err != nil {
		return -1
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.fail("bad argument count")
		return -1
	}
	// Every argument occupies at least its 1-byte tag.
	if v > uint64(len(d.data)-d.pos-n) {
		d.fail("argument count %d exceeds remaining bytes", v)
		return -1
	}
	d.pos += n
	return int(v)
}

// tag consumes and returns the next tag byte if it matches want.
func (d *Dec) tag(want byte) bool {
	if d.err != nil {
		return false
	}
	if d.pos >= len(d.data) {
		d.fail("truncated argument")
		return false
	}
	if d.data[d.pos] != want {
		d.fail("tag mismatch: want %d, have %d", want, d.data[d.pos])
		return false
	}
	d.pos++
	return true
}

// peekNil consumes a tagNil if present, reporting whether it did.
func (d *Dec) peekNil() bool {
	if d.err != nil || d.pos >= len(d.data) || d.data[d.pos] != tagNil {
		return false
	}
	d.pos++
	return true
}

func (d *Dec) count(elemSize int) int {
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.fail("bad length")
		return -1
	}
	d.pos += n
	if v > uint64((len(d.data)-d.pos)/elemSize) {
		d.fail("declared length %d exceeds remaining bytes", v)
		return -1
	}
	return int(v)
}

// Bool reads a bool argument.
func (d *Dec) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.pos >= len(d.data) {
		d.fail("truncated argument")
		return false
	}
	switch d.data[d.pos] {
	case tagTrue:
		d.pos++
		return true
	case tagFalse:
		d.pos++
		return false
	}
	d.fail("tag mismatch: want bool, have %d", d.data[d.pos])
	return false
}

func (d *Dec) varint() int64 {
	v, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.pos += n
	return v
}

// Int reads an int argument.
func (d *Dec) Int() int {
	if !d.tag(tagInt) {
		return 0
	}
	return int(d.varint())
}

// Int64 reads an int64 argument.
func (d *Dec) Int64() int64 {
	if !d.tag(tagInt64) {
		return 0
	}
	return d.varint()
}

// Float64 reads a float64 argument.
func (d *Dec) Float64() float64 {
	if !d.tag(tagFloat64) {
		return 0
	}
	if len(d.data)-d.pos < 8 {
		d.fail("truncated payload")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.pos:]))
	d.pos += 8
	return v
}

// Str reads a string argument.
func (d *Dec) Str() string {
	if !d.tag(tagString) {
		return ""
	}
	l := d.count(1)
	if l < 0 {
		return ""
	}
	s := string(d.data[d.pos : d.pos+l])
	d.pos += l
	return s
}

// Bytes reads a []byte argument, aliasing the input in alias mode.
func (d *Dec) Bytes() []byte {
	if !d.tag(tagBytes) {
		return nil
	}
	return d.bytesBody()
}

func (d *Dec) bytesBody() []byte {
	l := d.count(1)
	if l < 0 {
		return nil
	}
	if d.alias {
		out := d.data[d.pos : d.pos+l : d.pos+l]
		d.pos += l
		return out
	}
	out := make([]byte, l)
	copy(out, d.data[d.pos:d.pos+l])
	d.pos += l
	return out
}

// F64s reads a []float64 argument.
func (d *Dec) F64s() []float64 {
	if !d.tag(tagF64Slice) {
		return nil
	}
	return d.f64sBody()
}

func (d *Dec) f64sBody() []float64 {
	l := d.count(8)
	if l < 0 {
		return nil
	}
	out := make([]float64, l)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.pos+8*i:]))
	}
	d.pos += 8 * l
	return out
}

// F32s reads a []float32 argument.
func (d *Dec) F32s() []float32 {
	if !d.tag(tagF32Slice) {
		return nil
	}
	return d.f32sBody()
}

func (d *Dec) f32sBody() []float32 {
	l := d.count(4)
	if l < 0 {
		return nil
	}
	out := make([]float32, l)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(d.data[d.pos+4*i:]))
	}
	d.pos += 4 * l
	return out
}

// I64s reads an []int64 argument.
func (d *Dec) I64s() []int64 {
	if !d.tag(tagI64Slice) {
		return nil
	}
	return d.i64sBody()
}

func (d *Dec) i64sBody() []int64 {
	l := d.count(8)
	if l < 0 {
		return nil
	}
	out := make([]int64, l)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(d.data[d.pos+8*i:]))
	}
	d.pos += 8 * l
	return out
}

// I32s reads an []int32 argument.
func (d *Dec) I32s() []int32 {
	if !d.tag(tagI32Slice) {
		return nil
	}
	return d.i32sBody()
}

func (d *Dec) i32sBody() []int32 {
	l := d.count(4)
	if l < 0 {
		return nil
	}
	out := make([]int32, l)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(d.data[d.pos+4*i:]))
	}
	d.pos += 4 * l
	return out
}

// Ints reads an []int argument.
func (d *Dec) Ints() []int {
	if !d.tag(tagIntSlice) {
		return nil
	}
	return d.intsBody()
}

func (d *Dec) intsBody() []int {
	l := d.count(8)
	if l < 0 {
		return nil
	}
	out := make([]int, l)
	for i := range out {
		out[i] = int(int64(binary.LittleEndian.Uint64(d.data[d.pos+8*i:])))
	}
	d.pos += 8 * l
	return out
}

// Nil-preserving slice readers, pairing the *OrNil appenders for flat struct
// fields.

// BytesOrNil reads a []byte field that may be an explicit nil.
func (d *Dec) BytesOrNil() []byte {
	if d.peekNil() {
		return nil
	}
	return d.Bytes()
}

// F64sOrNil reads a []float64 field that may be an explicit nil.
func (d *Dec) F64sOrNil() []float64 {
	if d.peekNil() {
		return nil
	}
	return d.F64s()
}

// F32sOrNil reads a []float32 field that may be an explicit nil.
func (d *Dec) F32sOrNil() []float32 {
	if d.peekNil() {
		return nil
	}
	return d.F32s()
}

// I64sOrNil reads an []int64 field that may be an explicit nil.
func (d *Dec) I64sOrNil() []int64 {
	if d.peekNil() {
		return nil
	}
	return d.I64s()
}

// I32sOrNil reads an []int32 field that may be an explicit nil.
func (d *Dec) I32sOrNil() []int32 {
	if d.peekNil() {
		return nil
	}
	return d.I32s()
}

// IntsOrNil reads an []int field that may be an explicit nil.
func (d *Dec) IntsOrNil() []int {
	if d.peekNil() {
		return nil
	}
	return d.Ints()
}

// FlatHeader consumes a flat value's tagFlat marker and type name,
// verifying the name matches. Typed decoders of statically known flat
// types use it in place of the registry's name lookup.
func (d *Dec) FlatHeader(name string) bool {
	if !d.tag(tagFlat) {
		return false
	}
	l := d.count(1)
	if l < 0 {
		return false
	}
	got := d.data[d.pos : d.pos+l]
	d.pos += l
	if string(got) != name {
		d.fail("flat type mismatch: want %q, have %q", name, got)
		return false
	}
	return true
}

// Abort marks the reader failed. Typed decoders use it for structural
// mismatches the typed readers cannot express, such as an unexpected field
// count.
func (d *Dec) Abort(msg string) { d.fail("%s", msg) }

// Any reads one argument of arbitrary type through the full generic decoder
// (including gob and nested flat values). Typed decoders use it for
// parameter types without a specialized reader.
func (d *Dec) Any() any {
	if d.err != nil {
		return nil
	}
	v, used, err := decodeOneDepth(d.data[d.pos:], d.alias, d.depth+1)
	if err != nil {
		d.fail("%v", err)
		return nil
	}
	d.pos += used
	return v
}
