// Flat struct codecs: the reflection-light, gob-free encoding of plain
// struct values. RegisterFlatStruct builds one per eligible struct type
// (every field exported and of a direct-copy type), core's entry-method
// handles ask for one for each struct parameter, and core registers
// hand-written ones for Proxy and Future. Once registered, the argument
// codec (AppendArgs/DecodeArgs) routes values of that type through the flat
// codec instead of gob.
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
	"bytes"
	"encoding/binary"
	"encoding/gob"
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

// FlatDecoder reads the flat field list at the start of data and returns the
// decoded value and the bytes it used. It is handed bytes, not the decoder's
// Dec: what a func value is handed escapes, and the Dec must stay on its
// caller's stack.
type FlatDecoder func(data []byte) (v any, used int, err error)

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
		for i := range n {
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
func readFlatStruct(d *Dec, t reflect.Type) any {
	n := t.NumField()
	if d.Count() != n {
		d.fail("%s field count", t.Name())
		return nil
	}
	rv := reflect.New(t).Elem()
	for i := range n {
		readFlatField(d, rv.Field(i))
	}
	return rv.Interface()
}

func appendFlatField(dst []byte, f reflect.Value) []byte {
	switch f.Kind() {
	case reflect.Bool:
		return appendBool(dst, f.Bool())
	case reflect.Int:
		return AppendInt(dst, int(f.Int()))
	case reflect.Int64:
		return AppendInt64(dst, f.Int())
	case reflect.Float64:
		return appendFloat64(dst, f.Float())
	case reflect.String:
		return appendString(dst, f.String())
	}
	// A slice of the direct-copy set. A nil one is an explicit tagNil: gob,
	// which flat codecs replace for struct values, tells nil from empty, where
	// top-level arguments collapse nil to empty.
	if f.IsNil() {
		return append(dst, tagNil)
	}
	dst, _ = appendOne(dst, f.Interface()) // cannot fail: every such slice has its own tag
	return dst
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
		f.SetString(d.str())
	default:
		// A slice, or tagNil, which leaves the field nil.
		if s := d.value(); s != nil && d.err == nil {
			if v := reflect.ValueOf(s); v.Type() == f.Type() {
				f.Set(v)
			} else {
				d.fail("flat field of type %v holds a %T", f.Type(), s)
			}
		}
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
	out, ok := c.enc(appendFlatHeader(dst, c.name), v)
	if !ok {
		return dst, false
	}
	return out, true
}

// ---------------------------------------------------------------------------
// Writers of the one argument codec: one per type, each writing the bytes
// appendOne writes for a value of it. AppendCount writes the leading
// argument (or flat field) count; it, AppendInt, AppendInt64 and
// AppendIntsOrNil are exported for the field lists of core's flat codecs.
// ---------------------------------------------------------------------------

// AppendCount appends the uvarint argument (or flat field) count.
func AppendCount(dst []byte, n int) []byte {
	return binary.AppendUvarint(dst, uint64(n))
}

func appendBool(dst []byte, v bool) []byte {
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

func appendFloat64(dst []byte, v float64) []byte {
	dst = append(dst, tagFloat64)
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendString(dst []byte, v string) []byte {
	dst = append(dst, tagString)
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	return append(dst, v...)
}

// appendBytes writes nil as length 0: a top-level nil []byte decodes empty.
func appendBytes(dst []byte, v []byte) []byte {
	dst = append(dst, tagBytes)
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	return append(dst, v...)
}

func appendF64s(dst []byte, v []float64) []byte {
	dst = append(dst, tagF64Slice)
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	for _, f := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

func appendF32s(dst []byte, v []float32) []byte {
	dst = append(dst, tagF32Slice)
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	for _, f := range v {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(f))
	}
	return dst
}

func appendI64s(dst []byte, v []int64) []byte {
	dst = append(dst, tagI64Slice)
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
	}
	return dst
}

func appendI32s(dst []byte, v []int32) []byte {
	dst = append(dst, tagI32Slice)
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(x))
	}
	return dst
}

func appendInts(dst []byte, v []int) []byte {
	dst = append(dst, tagIntSlice)
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
	}
	return dst
}

// AppendIntsOrNil appends an []int flat field, a nil one as tagNil (see
// appendFlatField).
func AppendIntsOrNil(dst []byte, v []int) []byte {
	if v == nil {
		return append(dst, tagNil)
	}
	return appendInts(dst, v)
}

// appendFlatHeader appends the tagFlat marker and type name that precede a
// flat value's field list.
func appendFlatHeader(dst []byte, name string) []byte {
	dst = append(dst, tagFlat)
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	return append(dst, name...)
}

// ---------------------------------------------------------------------------
// Dec: the reader of the one argument codec. value is the generic decoder's
// tag switch; the typed readers (Bool, Int, Int64, Float64, IntsOrNil) check
// a tag and share its body reader, so each tag has one reader. Every declared
// count and length is checked against the bytes left before it is used, by
// division so that it cannot overflow. On any malformed or type-mismatched
// input the reader goes sticky-bad; the caller checks Ok() once at the end.
// ---------------------------------------------------------------------------

// Dec reads an encoded argument list front to back.
type Dec struct {
	data  []byte
	pos   int
	alias bool
	depth int // flat values being read around the current one
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

// Abort marks the reader failed. Flat decoders use it for structural
// mismatches the typed readers cannot express, such as an unexpected field
// count.
func (d *Dec) Abort(msg string) { d.fail("%s", msg) }

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
		d.fail("argument count %d exceeds %d remaining bytes", v, len(d.data)-d.pos-n)
		return -1
	}
	d.pos += n
	return int(v)
}

// value reads one argument of whatever type its tag names.
func (d *Dec) value() any {
	if d.err != nil {
		return nil
	}
	if d.pos >= len(d.data) {
		d.fail("truncated argument")
		return nil
	}
	tag := d.data[d.pos]
	d.pos++
	switch tag {
	case tagNil:
		return nil
	case tagFalse, tagTrue:
		return tag == tagTrue
	case tagInt:
		return int(d.varint())
	case tagInt64:
		return d.varint()
	case tagFloat64:
		return d.float64Body()
	case tagString:
		return d.strBody()
	case tagBytes:
		return d.bytesBody()
	case tagF64Slice:
		return d.f64sBody()
	case tagF32Slice:
		return d.f32sBody()
	case tagI64Slice:
		return d.i64sBody()
	case tagI32Slice:
		return d.i32sBody()
	case tagIntSlice:
		return d.intsBody()
	case tagGob:
		return d.gobBody()
	case tagFlat:
		return d.flatBody()
	}
	d.fail("unknown tag %d", tag)
	return nil
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

// count reads a declared element count and validates it against the bytes
// remaining, given a fixed element size: by division, which cannot
// overflow, unlike the naive check of size*count.
func (d *Dec) count(elemSize int) int {
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.fail("bad length")
		return -1
	}
	d.pos += n
	if v > uint64((len(d.data)-d.pos)/elemSize) {
		d.fail("declared length %d exceeds %d remaining bytes", v, len(d.data)-d.pos)
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
	return d.float64Body()
}

func (d *Dec) float64Body() float64 {
	if len(d.data)-d.pos < 8 {
		d.fail("truncated payload")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.pos:]))
	d.pos += 8
	return v
}

func (d *Dec) str() string {
	if !d.tag(tagString) {
		return ""
	}
	return d.strBody()
}

func (d *Dec) strBody() string {
	l := d.count(1)
	if l < 0 {
		return ""
	}
	s := string(d.data[d.pos : d.pos+l])
	d.pos += l
	return s
}

// bytesBody aliases the input in alias mode.
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

// peekNil consumes a tagNil if present, reporting whether it did.
func (d *Dec) peekNil() bool {
	if d.err != nil || d.pos >= len(d.data) || d.data[d.pos] != tagNil {
		return false
	}
	d.pos++
	return true
}

// IntsOrNil reads an []int flat field that may be an explicit nil.
func (d *Dec) IntsOrNil() []int {
	if d.peekNil() || !d.tag(tagIntSlice) {
		return nil
	}
	return d.intsBody()
}

// gobBody is the gob fallback's reader (pickle analog).
func (d *Dec) gobBody() any {
	l := d.count(1)
	if l < 0 {
		return nil
	}
	var out any
	if err := gob.NewDecoder(bytes.NewReader(d.data[d.pos : d.pos+l])).Decode(&out); err != nil {
		d.fail("gob decode: %w", err)
		return nil
	}
	d.pos += l
	return out
}

// flatName reads a flat value's type name, past its tagFlat.
func (d *Dec) flatName() []byte {
	l := d.count(1)
	if l < 0 {
		return nil
	}
	name := d.data[d.pos : d.pos+l]
	d.pos += l
	return name
}

// flatBody reads a flat value past its tagFlat: the type name, then the field
// list through the codec registered under it. Flat values read around it
// count towards maxFlatDepth.
func (d *Dec) flatBody() any {
	if d.depth > maxFlatDepth {
		d.fail("flat value nested deeper than %d", maxFlatDepth)
		return nil
	}
	name := d.flatName()
	if d.err != nil {
		return nil
	}
	c, ok := flatReg.Load().byName[string(name)]
	if !ok {
		d.fail("no flat codec registered for %q", name)
		return nil
	}
	if c.st != nil {
		d.depth++
		v := readFlatStruct(d, c.st)
		d.depth--
		return v
	}
	v, used, err := c.dec(d.data[d.pos:])
	if err != nil {
		d.fail("flat %q: %w", name, err)
		return nil
	}
	d.pos += used
	return v
}

// FlatHeader consumes a flat value's tagFlat marker and type name,
// verifying the name matches. A reader of a statically known flat type uses
// it in place of the registry's name lookup.
func (d *Dec) FlatHeader(name string) bool {
	if !d.tag(tagFlat) {
		return false
	}
	if got := d.flatName(); d.err == nil && string(got) != name {
		d.fail("flat type mismatch: want %q, have %q", name, got)
	}
	return d.err == nil
}
