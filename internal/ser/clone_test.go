package ser

import "testing"

func TestClone(t *testing.T) {
	if Clone(nil) != nil {
		t.Errorf("Clone(nil) must be nil")
	}
	if got := Clone([]byte{}); got == nil || len(got) != 0 {
		t.Errorf("Clone(empty) must be empty non-nil, got %#v", got)
	}
	src := []byte{1, 2, 3}
	cp := Clone(src)
	if string(cp) != string(src) {
		t.Fatalf("Clone changed contents: %v", cp)
	}
	src[0] = 9
	if cp[0] != 1 {
		t.Errorf("Clone shares backing memory with its input")
	}
}

// TestCloneSeversDecodeAlias: a cloned DecodeArgsAlias result does not
// change when the buffer it was decoded from is written.
func TestCloneSeversDecodeAlias(t *testing.T) {
	buf, err := AppendArgs(nil, []any{[]byte("payload")})
	if err != nil {
		t.Fatalf("AppendArgs: %v", err)
	}
	args, _, err := DecodeArgsAlias(buf)
	if err != nil {
		t.Fatalf("DecodeArgsAlias: %v", err)
	}
	aliased := args[0].([]byte)
	kept := Clone(aliased)
	for i := range buf {
		buf[i] = 0xFF // another holder of the buffer writes it
	}
	if string(kept) != "payload" {
		t.Errorf("cloned payload changed by a write to its source buffer: %q", kept)
	}
	if string(aliased) == "payload" {
		t.Errorf("fixture broken: decode did not alias the input buffer")
	}
}

// TestCloneArgs: the deep form severs []byte aliases recursively through
// nested []any lists and leaves everything else untouched.
func TestCloneArgs(t *testing.T) {
	if CloneArgs(nil) != nil {
		t.Errorf("CloneArgs(nil) must be nil")
	}
	buf, err := AppendArgs(nil, []any{[]byte("outer"), 42, []byte("inner")})
	if err != nil {
		t.Fatalf("AppendArgs: %v", err)
	}
	args, _, err := DecodeArgsAlias(buf)
	if err != nil {
		t.Fatalf("DecodeArgsAlias: %v", err)
	}
	// Nest one aliased slice a level down, as a chunked task list would.
	kept := CloneArgs([]any{args[0], args[1], []any{args[2], "s"}})
	for i := range buf {
		buf[i] = 0xFF
	}
	if string(kept[0].([]byte)) != "outer" {
		t.Errorf("top-level []byte corrupted by buffer reuse: %q", kept[0])
	}
	if kept[1].(int) != 42 {
		t.Errorf("scalar not carried over: %v", kept[1])
	}
	inner := kept[2].([]any)
	if string(inner[0].([]byte)) != "inner" {
		t.Errorf("nested []byte corrupted by buffer reuse: %q", inner[0])
	}
	if inner[1].(string) != "s" {
		t.Errorf("nested string not carried over: %v", inner[1])
	}
	if string(args[0].([]byte)) == "outer" {
		t.Errorf("fixture broken: decode did not alias the input buffer")
	}
}
