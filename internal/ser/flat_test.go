package ser

import (
	"bytes"
	"reflect"
	"testing"
)

// flatPoint is an eligible struct for the reflective flat codec
// (RegisterFlatStruct). appendFlatPointFields and readFlatPointFields spell
// out, field by field, the bytes that codec must write and read: they are the
// oracle the tests below hold it to. Its generic path (AppendArgs, which
// consults the flat registry) and the hand-written encoding must produce
// identical bytes, and both decoders must agree.
type flatPoint struct {
	N     int
	Scale float64
	Name  string
	Grid  []int
	Raw   []byte
}

const flatPointName = "charmgo/internal/ser.flatPoint"

func appendFlatPointFields(dst []byte, v flatPoint) []byte {
	dst = AppendCount(dst, 5)
	dst = AppendInt(dst, v.N)
	dst = appendFloat64(dst, v.Scale)
	dst = appendString(dst, v.Name)
	dst = AppendIntsOrNil(dst, v.Grid)
	dst = appendBytesOrNil(dst, v.Raw)
	return dst
}

func readFlatPointFields(d *Dec) flatPoint {
	var v flatPoint
	if d.Count() != 5 {
		d.Abort("flatPoint field count")
		return v
	}
	v.N = d.Int()
	v.Scale = d.Float64()
	v.Name = d.str()
	v.Grid = d.IntsOrNil()
	v.Raw = readBytesOrNil(d)
	return v
}

// appendBytesOrNil and readBytesOrNil spell out a nil-keeping []byte field.
func appendBytesOrNil(dst []byte, v []byte) []byte {
	if v == nil {
		return append(dst, tagNil)
	}
	return appendBytes(dst, v)
}

func readBytesOrNil(d *Dec) []byte {
	if d.peekNil() || !d.tag(tagBytes) {
		return nil
	}
	return d.bytesBody()
}

// appendFlatPoint is the hand-written argument encoder (header + fields).
func appendFlatPoint(dst []byte, v flatPoint) []byte {
	return appendFlatPointFields(appendFlatHeader(dst, flatPointName), v)
}

func registerFlatPoint() {
	if !RegisterFlatStruct(reflect.TypeOf(flatPoint{})) {
		panic("flatPoint is not eligible for a flat codec")
	}
}

// A struct with an unexported field, or a field outside the direct-copy set,
// gets no flat codec: it goes through gob.
func TestFlatStructEligibility(t *testing.T) {
	type hidden struct {
		N int
		n int
	}
	type nested struct{ P flatPoint }
	type named struct{ M myInt }
	for _, v := range []any{hidden{}, nested{}, named{}, 3, []int{}} {
		if RegisterFlatStruct(reflect.TypeOf(v)) {
			t.Errorf("%T got a flat codec", v)
		}
	}
}

type myInt int

func TestFlatRoundTrip(t *testing.T) {
	registerFlatPoint()
	cases := []flatPoint{
		{},
		{N: -3, Scale: 2.5, Name: "hello", Grid: []int{1, 2, 3}, Raw: []byte{9}},
		{Grid: []int{}, Raw: []byte{}}, // empty non-nil slices
	}
	for _, v := range cases {
		enc, err := AppendArgs(nil, []any{v})
		if err != nil {
			t.Fatalf("%+v: %v", v, err)
		}
		got, used, err := DecodeArgs(enc)
		if err != nil || used != len(enc) || len(got) != 1 {
			t.Fatalf("%+v: decode: %v (used %d/%d, %d args)", v, err, used, len(enc), len(got))
		}
		dec := got[0].(flatPoint)
		// Field-level nil/empty is preserved by the OrNil convention except
		// that empty and nil both carry length info; check semantic equality.
		if dec.N != v.N || dec.Scale != v.Scale || dec.Name != v.Name ||
			!reflect.DeepEqual(dec.Grid, v.Grid) || !bytes.Equal(dec.Raw, v.Raw) {
			t.Errorf("roundtrip mismatch: got %+v want %+v", dec, v)
		}
		if (dec.Grid == nil) != (v.Grid == nil) || (dec.Raw == nil) != (v.Raw == nil) {
			t.Errorf("nil-ness not preserved: got %+v want %+v", dec, v)
		}
	}
}

func TestFlatGenericAndGeneratedBytesIdentical(t *testing.T) {
	registerFlatPoint()
	v := flatPoint{N: 7, Scale: -0.25, Name: "x", Grid: []int{4, 5}}
	generic, err := AppendArgs(nil, []any{v, 42, "tail"})
	if err != nil {
		t.Fatal(err)
	}
	gen := AppendCount(nil, 3)
	gen = appendFlatPoint(gen, v)
	gen = AppendInt(gen, 42)
	gen = appendString(gen, "tail")
	if !bytes.Equal(generic, gen) {
		t.Fatalf("reflective and hand-written encodings differ:\n  reflective  %x\n  hand-written %x", generic, gen)
	}
	// And the typed reader agrees with the generic decoder.
	d := NewDec(gen, false)
	if d.Count() != 3 {
		t.Fatalf("Count: %v", d.Err())
	}
	got := readFlatPointValue(t, &d)
	if n := d.Int(); n != 42 {
		t.Fatalf("Int: got %d (%v)", n, d.Err())
	}
	if s := d.str(); s != "tail" {
		t.Fatalf("Str: got %q (%v)", s, d.Err())
	}
	if !d.Ok() || d.Used() != len(gen) {
		t.Fatalf("reader state: err=%v used=%d/%d", d.Err(), d.Used(), len(gen))
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("typed read mismatch: got %+v want %+v", got, v)
	}
}

func readFlatPointValue(t *testing.T, d *Dec) flatPoint {
	t.Helper()
	if !d.FlatHeader(flatPointName) {
		t.Fatalf("FlatHeader: %v", d.Err())
	}
	return readFlatPointFields(d)
}

func TestFlatDecodeHostileInputs(t *testing.T) {
	registerFlatPoint()
	valid, err := AppendArgs(nil, []any{flatPoint{N: 1, Name: "a", Grid: []int{2}}})
	if err != nil {
		t.Fatal(err)
	}
	// Every strict truncation of a valid flat payload must error, not panic
	// (the declared arg count can never be satisfied by fewer bytes).
	for i := 0; i < len(valid); i++ {
		if _, _, err := DecodeArgs(valid[:i]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", i, len(valid))
		}
	}
	// Unknown wire name errors cleanly.
	unknown := AppendCount(nil, 1)
	unknown = appendFlatPointFields(appendFlatHeader(unknown, "ser_test.noSuchType"), flatPoint{})
	if _, _, err := DecodeArgs(unknown); err == nil {
		t.Error("decoding an unregistered flat name should fail")
	}
	// Wrong-name FlatHeader on the typed reader aborts and stays aborted.
	d := NewDec(valid, false)
	d.Count()
	if d.FlatHeader("ser_test.other") {
		t.Error("FlatHeader with wrong name should fail")
	}
	if d.Ok() {
		t.Error("Dec should be in error state after name mismatch")
	}
	if d.Int() != 0 || d.Ok() {
		t.Error("sticky error violated: reads after failure must return zero values")
	}
}

// FuzzFlatDifferential is the flat codec's contract as a fuzz target: for
// arbitrary field values, the reflective codec (through the generic registry
// path) and the hand-written typed path must (1) produce byte-identical encodings, (2) decode each
// other's output, and (3) agree on the decoded value. This is what lets
// bound and unbound peers interoperate on one wire format.
func FuzzFlatDifferential(f *testing.F) {
	registerFlatPoint()
	f.Add(0, 0.0, "", []byte(nil), false, false)
	f.Add(-9, 1.75, "name", []byte{1, 0, 255}, true, true)
	f.Fuzz(func(t *testing.T, n int, scale float64, name string, gridRaw []byte, nilGrid, nilRaw bool) {
		v := flatPoint{N: n, Scale: scale, Name: name}
		if !nilGrid {
			v.Grid = make([]int, 0, len(gridRaw))
			for _, b := range gridRaw {
				v.Grid = append(v.Grid, int(b)-128)
			}
		}
		if !nilRaw {
			v.Raw = append([]byte{}, gridRaw...)
		}

		generic, err := AppendArgs(nil, []any{v})
		if err != nil {
			t.Fatalf("generic encode: %v", err)
		}
		gen := appendFlatPoint(AppendCount(nil, 1), v)
		if !bytes.Equal(generic, gen) {
			t.Fatalf("encodings differ:\n  reflective   %x\n  hand-written %x", generic, gen)
		}

		args, used, err := DecodeArgs(gen)
		if err != nil || used != len(gen) || len(args) != 1 {
			t.Fatalf("generic decode of hand-written bytes: %v (used %d/%d)", err, used, len(gen))
		}
		d := NewDec(generic, false)
		if d.Count() != 1 {
			t.Fatalf("Count: %v", d.Err())
		}
		if !d.FlatHeader(flatPointName) {
			t.Fatalf("FlatHeader: %v", d.Err())
		}
		typed := readFlatPointFields(&d)
		if !d.Ok() || d.Used() != len(generic) {
			t.Fatalf("typed decode of generic bytes: err=%v used=%d/%d", d.Err(), d.Used(), len(generic))
		}
		if !reflect.DeepEqual(args[0].(flatPoint), typed) {
			t.Fatalf("decoders disagree: generic %+v typed %+v", args[0], typed)
		}
		if !reflect.DeepEqual(typed, v) {
			t.Fatalf("roundtrip changed value: got %+v want %+v", typed, v)
		}
	})
}
