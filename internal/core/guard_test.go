package core

import (
	"strings"
	"testing"
	"unsafe"
)

// guardBlock has the shape of stencil.Block as a when-guard sees it. The
// embedded Chare is what made a by-name lookup of "iter" expensive before
// guards were bound: reflect searched it breadth-first for the missing name.
type guardBlock struct {
	Chare
	G        []float64
	Iter     int
	MsgCount int
	pending  int
}

func (b *guardBlock) RecvGhost(iter, dir int, face []float64) {}

// A guard that can never evaluate fails Register — with the type, the method
// and the condition — instead of panicking a PE at its first message.
func TestRegisterRejectsUnresolvableGuard(t *testing.T) {
	names := ArgNames("RecvGhost", "iter", "dir", "face")
	for _, c := range []struct{ cond, want string }{
		{"self.itr == iter", `has no field "itr"`},
		{"self.iter == itre", `name "itre" is not defined`},
		{"self.iter == arg3", `name "arg3" is not defined`},
		{"self.pending == 0", `field "pending" of core.guardBlock is unexported`},
		{"self.ec == None", "unexported"},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				for _, part := range []string{"guardBlock.RecvGhost", c.cond, c.want} {
					if !strings.Contains(msg, part) {
						t.Errorf("Register with guard %q panicked with %q, want it to contain %q", c.cond, msg, part)
					}
				}
			}()
			NewRuntime(Config{PEs: 1}).Register(&guardBlock{}, When("RecvGhost", c.cond), names)
		}()
	}
}

// BenchmarkWhenGuardBlock is one evaluation of stencil's guard the way
// emReady runs it: bound at Register, no allocation. `make check` runs it as
// a smoke test; the target is <= 30 ns.
func BenchmarkWhenGuardBlock(b *testing.B) {
	rt := NewRuntime(Config{PEs: 1})
	rt.Register(&guardBlock{},
		When("RecvGhost", "self.iter == iter"),
		ArgNames("RecvGhost", "iter", "dir", "face"))
	when := rt.types["guardBlock"].byName["RecvGhost"].when
	self := &guardBlock{Iter: 5}
	args := []any{5, 1, []float64(nil)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, err := when(self, args); err != nil || !ok {
			b.Fatalf("guard = %v, %v", ok, err)
		}
	}
	b.StopTimer()
	if n := testing.AllocsPerRun(100, func() { when(self, args) }); n != 0 {
		b.Errorf("bound guard allocates %v times per evaluation, want 0", n)
	}
}

// TestMessageSizeClass keeps Message and invokeBox in the malloc size classes
// they are in (160 and 192 bytes). Both have 8 spare bytes: one more
// word-pair moves them to the next class and raises the bytes allocated per
// message on every path (7 % per op on the benchmark's stream_tcp).
func TestMessageSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Message{}); n > 160 {
		t.Errorf("Message is %d bytes, over the 160-byte size class", n)
	}
	if n := unsafe.Sizeof(invokeBox{}); n > 192 {
		t.Errorf("invokeBox is %d bytes, over the 192-byte size class", n)
	}
}
