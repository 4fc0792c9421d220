package charmgo_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"charmgo/internal/bench"
	"charmgo/internal/core"
	"charmgo/internal/elastic"
	"charmgo/internal/stencil"
	"charmgo/internal/transport"
)

// TestRemoteInvokeAllocGuard pins the remote-invoke hot path, sender and
// receiver together, at what the caller allocates: the variadic args slice of
// p.Call("Ping", 1) (the 1 itself is in the runtime's small-value cache).
// Nothing on either node is the runtime's: the sender encodes from a Message
// on its stack, the receiver decodes into a recycled box. It was 4 — that
// slice, the sender's Message, the receiver's box and its argument list. A
// regression means one of them, or instrumentation, is back on the path.
func TestRemoteInvokeAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard, skipped in -short")
	}
	res := testing.Benchmark(func(b *testing.B) {
		nw := transport.NewMemNetwork(2)
		benchRemoteRate(b, []transport.Transport{nw.Endpoint(0), nw.Endpoint(1)})
	})
	if a := res.AllocsPerOp(); a > 1 {
		t.Errorf("remote invoke with observability off = %d allocs/op, want <= 1 (the caller's args slice)", a)
	}
}

// TestGeneratedDispatchAllocGuard pins the generated-binding hot path: with
// bindings attached (Compiled mode), an in-node invoke is the caller's
// variadic args slice plus the Message — no reflect.Value boxing, no
// MethodByName, no coercion (the reflective path costs 7). A regression here
// means reflection leaked back into the bound dispatch path.
func TestGeneratedDispatchAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard, skipped in -short")
	}
	res := testing.Benchmark(func(b *testing.B) {
		benchDispatch(b, core.Config{PEs: 2, Dispatch: core.StaticDispatch},
			genProto, "Ping", 1)
	})
	if a := res.AllocsPerOp(); a > 3 {
		t.Errorf("generated dispatch = %d allocs/op, want <= 3 (reflection leak?)", a)
	}
}

// TestGeneratedCodecAllocGuard pins the serialized struct-argument path: the
// generated flat codec writes three fixed-width fields where the fallback
// runs a full gob encoder/decoder pair per message (~200 allocs). The bound
// proves gob is off the generated wire path; the differential proves the
// baseline still exercises gob (i.e. the guard itself is live).
func TestGeneratedCodecAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard, skipped in -short")
	}
	serialized := core.Config{PEs: 2, Dispatch: core.StaticDispatch, ForceSerialize: true}
	gen := testing.Benchmark(func(b *testing.B) {
		benchDispatch(b, serialized, genProto, "PingVec", bench.Vec3{X: 1})
	})
	ref := testing.Benchmark(func(b *testing.B) {
		benchDispatch(b, serialized, reflectProto, "PingVec", vecReflect{X: 1})
	})
	if a := gen.AllocsPerOp(); a > 8 {
		t.Errorf("generated serialized struct invoke = %d allocs/op, want <= 8 (gob leak?)", a)
	}
	if g, r := gen.AllocsPerOp(), ref.AllocsPerOp(); r < 3*g {
		t.Errorf("gob baseline = %d allocs/op vs generated %d: differential collapsed, guard no longer measures the fallback", r, g)
	}
}

// TestStencilFineAllocGuard pins what one step of the benchmark's
// stencil_fine job (64^3 grid, 8x8x4 blocks, 2 PEs: 1280 ghost messages a
// step) allocates, taken as the difference between a 40-step and a 10-step
// job so that the grids and the boot cancel out. Since guards are bound at
// Register and faces are recycled, a ghost message costs its Message, the
// caller's args slice with three boxed values and the element index — no
// guard environment, no boxed field, no face. The run was 1.97 MB and 15.7
// mallocs per message before; a regression here means one of them is back.
func TestStencilFineAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard, skipped in -short")
	}
	job := func(iters int) (bytes, mallocs uint64) {
		p := stencil.Params{GridX: 64, GridY: 64, GridZ: 64, BX: 8, BY: 8, BZ: 4, Iters: iters}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := stencil.RunCharm(p, core.Config{PEs: 2}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	const steps, msgsPerStep = 30, 2 * (7*8*4 + 8*7*4 + 8*8*3)
	b10, m10 := job(10)
	b40, m40 := job(10 + steps)
	perStep := float64(b40-b10) / steps
	perMsg := float64(m40-m10) / steps / msgsPerStep
	t.Logf("%.0f B/step, %.2f mallocs per ghost message", perStep, perMsg)
	if perStep > 0.65e6 {
		t.Errorf("a step allocates %.0f B, want <= 650000", perStep)
	}
	if perMsg > 9 {
		t.Errorf("a ghost message costs %.2f mallocs, want <= 9", perMsg)
	}
}

// TestKVRequestAllocGuard pins what one kvservice read costs end to end on
// the benchmark's kv_closed shape (3 nodes x 1 PE, 24 shards, 64-byte
// values): request and reply Messages on both sides, their codecs, the
// external future and its channel. It was 1 436 B and 23.8 mallocs while
// every request armed a fresh 20 s time.After; the deadline timer is pooled
// now, and a regression here means a per-request timer (or something of its
// size) is back on the path.
func TestKVRequestAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard, skipped in -short")
	}
	svc, err := elastic.NewService(elastic.ServiceConfig{Nodes: 3, PEs: 1, Shards: 24})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	const keys, reads = 256, 20000
	key := make([]string, keys)
	for i := range key {
		key[i] = fmt.Sprintf("key-%04d", i)
		if err := svc.Put(key[i], strings.Repeat("v", 64)); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		if _, err := svc.Get(key[i%keys]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / reads
	mallocs := float64(after.Mallocs-before.Mallocs) / reads
	t.Logf("%.0f B, %.1f mallocs per Get", bytes, mallocs)
	if bytes > 1150 {
		t.Errorf("a Get round trip allocates %.0f B, want <= 1150", bytes)
	}
	if mallocs > 20 {
		t.Errorf("a Get round trip costs %.1f mallocs, want <= 20", mallocs)
	}
}
