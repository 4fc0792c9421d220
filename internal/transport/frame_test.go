package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"testing"
)

func prefixed(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// A length prefix is a peer's claim: one that announces 512 MiB and closes
// must cost the receiver a step of the frame buffer, not half a gigabyte.
func TestHostileLengthPrefix(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return // Accept below fails the test
		}
		c.Write(append(binary.BigEndian.AppendUint32(nil, 512<<20), "only this much"...))
		c.Close()
	}()
	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fr := frameReader{r: bufio.NewReaderSize(c, readBufSize)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if frame, err := fr.next(); err == nil {
		t.Fatalf("read a %d-byte frame from a peer that sent 14 bytes", len(frame))
	}
	runtime.ReadMemStats(&after)
	if grew := int64(after.Sys) - int64(before.Sys); grew > 8<<20 {
		t.Errorf("the prefix alone made the process take %d MiB from the OS, want a few at most", grew>>20)
	}
}

// The frame buffer is reused from frame to frame, grows with the bytes that
// arrive, and is not kept once a frame has made it larger than frameStep.
func TestFrameReaderReusesBuffer(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), (3<<20)/16)
	var wire []byte
	for _, p := range [][]byte{[]byte("one"), []byte("second"), big, []byte("after"), nil} {
		wire = append(wire, prefixed(p)...)
	}
	fr := frameReader{r: bufio.NewReaderSize(bytes.NewReader(wire), readBufSize)}
	next := func(want []byte) []byte {
		t.Helper()
		got, err := fr.next()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frame = %d bytes, %v; want %d bytes", len(got), err, len(want))
		}
		return got
	}
	a := next([]byte("one"))
	b := next([]byte("second"))
	if &a[0] != &b[0] {
		t.Error("two small frames did not share the connection's buffer")
	}
	next(big)
	c := next([]byte("after"))
	if cap(c) > frameStep {
		t.Errorf("a %d-byte buffer outlived the frame that needed it", cap(c))
	}
	next(nil)
	if _, err := fr.next(); err == nil {
		t.Error("read a frame past the end of the stream")
	}
}
