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
// into a pooled transport frame with no intermediate buffers. There is one
// writer per type and one reader per tag (flat.go): the generic decoder's
// tag switch (Dec.value) and the typed readers that core's entry-method
// handles use on received bytes (Dec.Int, ...) share them.
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
		return append(dst, tagNil), nil
	case bool:
		return appendBool(dst, v), nil
	case int:
		return AppendInt(dst, v), nil
	case int64:
		return AppendInt64(dst, v), nil
	case float64:
		return appendFloat64(dst, v), nil
	case string:
		return appendString(dst, v), nil
	case []byte:
		return appendBytes(dst, v), nil
	case []float64:
		return appendF64s(dst, v), nil
	case []float32:
		return appendF32s(dst, v), nil
	case []int64:
		return appendI64s(dst, v), nil
	case []int32:
		return appendI32s(dst, v), nil
	case []int:
		return appendInts(dst, v), nil
	}
	// A registered flat codec beats gob.
	if out, ok := appendFlat(dst, a); ok {
		return out, nil
	}
	return appendGob(dst, a)
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
// against hostile input: declared counts and lengths are validated against
// the bytes actually present before any allocation or multiplication, so
// truncated or corrupt frames fail with an error rather than overflowing or
// exhausting memory (Dec holds the checks).
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
	d := NewDec(data, alias)
	count := d.Count()
	if count < 0 {
		return nil, 0, d.err
	}
	if dst == nil {
		dst = make([]any, 0, count)
	}
	for i := 0; i < count; i++ {
		a := d.value()
		if d.err != nil {
			return nil, 0, fmt.Errorf("arg %d: %w", i, d.err)
		}
		dst = append(dst, a)
	}
	return dst, d.pos, nil
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
