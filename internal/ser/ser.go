// Package ser implements argument and message serialization for the charmgo
// runtime. It plays the role that pickle plus the NumPy-array fast path play
// in CharmPy (paper section IV-B):
//
//   - Contiguous numeric buffers ([]float64, []int64, []byte, ...) are copied
//     directly into the message with a small type header, bypassing the
//     general-purpose serializer entirely.
//   - Primitive scalars (bool, ints, floats, strings) have compact direct
//     encodings.
//   - Everything else falls back to encoding/gob (the pickle analog), which
//     handles arbitrary registered Go types, at a cost.
//
// The encoders are append-style (like strconv.AppendInt): they write into a
// caller-supplied byte slice so a message can be serialized exactly once
// into a pooled transport frame with no intermediate buffers.
//
// The wire format for an argument list is:
//
//	uvarint(count) then per argument: tag byte + tag-specific payload.
package ser

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"strings"
)

// Argument type tags.
const (
	tagNil byte = iota
	tagFalse
	tagTrue
	tagInt   // varint, decoded as int
	tagInt64 // varint, decoded as int64
	tagFloat64
	tagString
	tagBytes
	tagF64Slice
	tagF32Slice
	tagI64Slice
	tagI32Slice
	tagIntSlice // []int encoded as 64-bit values
	tagGob      // gob-encoded payload (pickle analog)
)

// RegisterType registers a concrete type with the gob fallback codec so that
// values of that type can cross node boundaries inside interface arguments.
// It is safe to call multiple times with the same type.
func RegisterType(v any) {
	// gob.Register panics (with a string) on re-registration of a name; that
	// repeat is expected here and swallowed. Any other panic — notably the
	// "registering duplicate names for ..." raised when two distinct types
	// collide on one name — is a real bug and must propagate.
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if s, ok := r.(string); ok && strings.HasPrefix(s, "gob: registering duplicate") {
			return
		}
		panic(r)
	}()
	gob.Register(v)
}

// EncodeArgs appends the encoded argument list to buf. Prefer AppendArgs on
// hot paths; this wrapper exists for callers already holding a bytes.Buffer.
func EncodeArgs(buf *bytes.Buffer, args []any) error {
	b, err := AppendArgs(buf.AvailableBuffer(), args)
	if err != nil {
		return err
	}
	buf.Write(b)
	return nil
}

// AppendArgs appends the encoded argument list to dst and returns the
// extended slice. It allocates only when dst lacks capacity (or on the gob
// fallback path).
func AppendArgs(dst []byte, args []any) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(args)))
	var err error
	for i, a := range args {
		if dst, err = appendOne(dst, a); err != nil {
			return dst, fmt.Errorf("arg %d: %w", i, err)
		}
	}
	return dst, nil
}

func appendOne(dst []byte, a any) ([]byte, error) {
	switch v := a.(type) {
	case nil:
		dst = append(dst, tagNil)
	case bool:
		if v {
			dst = append(dst, tagTrue)
		} else {
			dst = append(dst, tagFalse)
		}
	case int:
		dst = append(dst, tagInt)
		dst = binary.AppendVarint(dst, int64(v))
	case int64:
		dst = append(dst, tagInt64)
		dst = binary.AppendVarint(dst, v)
	case float64:
		dst = append(dst, tagFloat64)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	case string:
		dst = append(dst, tagString)
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	case []byte:
		dst = append(dst, tagBytes)
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	case []float64:
		dst = append(dst, tagF64Slice)
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		for _, f := range v {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
		}
	case []float32:
		dst = append(dst, tagF32Slice)
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		for _, f := range v {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(f))
		}
	case []int64:
		dst = append(dst, tagI64Slice)
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
		}
	case []int32:
		dst = append(dst, tagI32Slice)
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(x))
		}
	case []int:
		dst = append(dst, tagIntSlice)
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
		}
	default:
		// A registered flat codec beats gob.
		if out, ok := appendFlat(dst, v); ok {
			return out, nil
		}
		return appendGob(dst, v)
	}
	return dst, nil
}

// appendGob is the gob fallback (pickle analog). It is a function of its own
// because gob needs the value's address: taken in appendOne, it would make
// every call heap-allocate its argument, the flat and scalar paths included.
func appendGob(dst []byte, v any) ([]byte, error) {
	dst = append(dst, tagGob)
	var gb bytes.Buffer
	enc := gob.NewEncoder(&gb)
	if err := enc.Encode(&v); err != nil {
		return dst, fmt.Errorf("gob encode %T: %w", v, err)
	}
	dst = binary.AppendUvarint(dst, uint64(gb.Len()))
	return append(dst, gb.Bytes()...), nil
}

// DecodeArgs decodes an argument list produced by AppendArgs/EncodeArgs and
// returns the arguments and the number of bytes consumed. It is hardened
// against hostile input: declared lengths are validated against the bytes
// actually present before any allocation or multiplication, so truncated or
// corrupt frames fail with an error rather than overflowing or exhausting
// memory.
func DecodeArgs(data []byte) ([]any, int, error) { return DecodeArgsInto(nil, data, false) }

// DecodeArgsAlias is DecodeArgs for callers that own data outright and keep
// it immutable for the lifetime of the decoded arguments: []byte arguments
// alias the input buffer instead of being copied out of it. The runtime uses
// it to deliver large reassembled broadcasts without an extra payload copy
// per node; the backing buffer must then be left to the garbage collector,
// never recycled. A receiver that wants to retain such a []byte beyond the
// entry method's return must sever the alias with Clone first (charmvet's
// aliasescape rule enforces this).
func DecodeArgsAlias(data []byte) ([]any, int, error) { return DecodeArgsInto(nil, data, true) }

// DecodeArgsInto is the decoder behind both: it appends the arguments to dst
// (append-style, like the encoders), so a receiver that recycles its
// argument slots decodes a list without allocating one. alias is
// DecodeArgsAlias's contract. On error the returned slice is nil and dst's
// spare capacity may hold the arguments decoded before the failure.
func DecodeArgsInto(dst []any, data []byte, alias bool) ([]any, int, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, 0, fmt.Errorf("bad argument count")
	}
	// Every argument occupies at least its 1-byte tag.
	if count > uint64(len(data)-n) {
		return nil, 0, fmt.Errorf("argument count %d exceeds %d remaining bytes", count, len(data)-n)
	}
	pos := n
	if dst == nil {
		dst = make([]any, 0, count)
	}
	for i := uint64(0); i < count; i++ {
		a, used, err := decodeOneDepth(data[pos:], alias, 0)
		if err != nil {
			return nil, 0, fmt.Errorf("arg %d: %w", i, err)
		}
		pos += used
		dst = append(dst, a)
	}
	return dst, pos, nil
}

func decodeOneDepth(data []byte, alias bool, depth int) (any, int, error) {
	if len(data) == 0 {
		return nil, 0, fmt.Errorf("truncated argument")
	}
	tag := data[0]
	pos := 1
	// readCount reads a declared element count and validates it against the
	// bytes remaining, given a fixed element size. Doing the bound check by
	// division (count > remaining/size) cannot overflow, unlike the naive
	// need(size*count).
	readCount := func(elemSize int) (int, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("bad length (tag %d)", tag)
		}
		pos += n
		if v > uint64((len(data)-pos)/elemSize) {
			return 0, fmt.Errorf("declared length %d exceeds %d remaining bytes (tag %d)",
				v, len(data)-pos, tag)
		}
		return int(v), nil
	}
	switch tag {
	case tagNil:
		return nil, pos, nil
	case tagFalse:
		return false, pos, nil
	case tagTrue:
		return true, pos, nil
	case tagInt:
		v, n := binary.Varint(data[pos:])
		if n <= 0 {
			return nil, 0, fmt.Errorf("bad varint")
		}
		return int(v), pos + n, nil
	case tagInt64:
		v, n := binary.Varint(data[pos:])
		if n <= 0 {
			return nil, 0, fmt.Errorf("bad varint")
		}
		return v, pos + n, nil
	case tagFloat64:
		if len(data)-pos < 8 {
			return nil, 0, fmt.Errorf("truncated payload (tag %d)", tag)
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
		return v, pos + 8, nil
	case tagString:
		l, err := readCount(1)
		if err != nil {
			return nil, 0, err
		}
		return string(data[pos : pos+l]), pos + l, nil
	case tagBytes:
		l, err := readCount(1)
		if err != nil {
			return nil, 0, err
		}
		if alias {
			return data[pos : pos+l : pos+l], pos + l, nil
		}
		out := make([]byte, l)
		copy(out, data[pos:pos+l])
		return out, pos + l, nil
	case tagF64Slice:
		l, err := readCount(8)
		if err != nil {
			return nil, 0, err
		}
		out := make([]float64, l)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[pos+8*i:]))
		}
		return out, pos + 8*l, nil
	case tagF32Slice:
		l, err := readCount(4)
		if err != nil {
			return nil, 0, err
		}
		out := make([]float32, l)
		for i := range out {
			out[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[pos+4*i:]))
		}
		return out, pos + 4*l, nil
	case tagI64Slice:
		l, err := readCount(8)
		if err != nil {
			return nil, 0, err
		}
		out := make([]int64, l)
		for i := range out {
			out[i] = int64(binary.LittleEndian.Uint64(data[pos+8*i:]))
		}
		return out, pos + 8*l, nil
	case tagI32Slice:
		l, err := readCount(4)
		if err != nil {
			return nil, 0, err
		}
		out := make([]int32, l)
		for i := range out {
			out[i] = int32(binary.LittleEndian.Uint32(data[pos+4*i:]))
		}
		return out, pos + 4*l, nil
	case tagIntSlice:
		l, err := readCount(8)
		if err != nil {
			return nil, 0, err
		}
		out := make([]int, l)
		for i := range out {
			out[i] = int(int64(binary.LittleEndian.Uint64(data[pos+8*i:])))
		}
		return out, pos + 8*l, nil
	case tagGob:
		l, err := readCount(1)
		if err != nil {
			return nil, 0, err
		}
		var out any
		dec := gob.NewDecoder(bytes.NewReader(data[pos : pos+l]))
		if err := dec.Decode(&out); err != nil {
			return nil, 0, fmt.Errorf("gob decode: %w", err)
		}
		return out, pos + l, nil
	case tagFlat:
		v, used, err := decodeFlat(data[pos:], alias, depth)
		if err != nil {
			return nil, 0, err
		}
		return v, pos + used, nil
	}
	return nil, 0, fmt.Errorf("unknown tag %d", tag)
}

// EncodeValue gob-encodes a single value (used for chare migration payloads,
// analogous to pickling a chare in CharmPy).
func EncodeValue(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(&v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeValue reverses EncodeValue.
func DecodeValue(data []byte) (any, error) {
	var out any
	dec := gob.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}
