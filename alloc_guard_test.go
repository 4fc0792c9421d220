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
// receiver together, over a MemNetwork pair. Ping(1) allocates nothing: the
// sender encodes from a Message and the caller's args slice on its stack
// (the aggregator is handed args beside the Message, not in it, so escape
// analysis keeps both there), the receiver keeps the argument bytes in a
// recycled box and the typed handle reads them straight into its int
// parameter, and the 1 is in the runtime's small-value cache. With
// arguments of 256 to 1000, as stream_tcp sends, what is left is the
// caller's own interface box of the int: 1 allocation, 8 B. The flood waits
// for the running total every remoteCredit messages (benchRemoteRate), so
// the figures are per message (the byte bound holds without the race
// detector, whose runtime allocates too). A fresh runtime pair grows its box
// stock to what a window holds in flight, about 16 600 boxes: while that
// happened inside the timed flood, it added 1 to 4 B/op at GOMAXPROCS=8,
// more the fewer invokes a loaded machine fits in the benchmark's second,
// so benchRemoteRate now queues two windows whole before the timer starts. It was 4 — the args slice, the
// sender's Message, the receiver's box and its argument list — then 1, the
// copy of args the sender made for the typed encoder. A regression means one of them, the decoded
// argument list, or instrumentation is back on the path.
func TestRemoteInvokeAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard, skipped in -short")
	}
	for _, c := range []struct {
		name          string
		arg           func(i int) int
		allocs, bytes int64
	}{
		{"Ping(1)", func(int) int { return 1 }, 0, -1},
		{"Ping(256..1000)", func(i int) int { return 256 + i%745 }, 1, 10},
	} {
		res := testing.Benchmark(func(b *testing.B) {
			nw := transport.NewMemNetwork(2)
			benchRemoteRate(b, []transport.Transport{nw.Endpoint(0), nw.Endpoint(1)}, c.arg)
		})
		a, n := res.AllocsPerOp(), res.AllocedBytesPerOp()
		t.Logf("%s: %d allocs/op, %d B/op over %d invokes", c.name, a, n, res.N)
		if a > c.allocs {
			t.Errorf("%s with observability off = %d allocs/op, want <= %d", c.name, a, c.allocs)
		}
		if c.bytes >= 0 && !raceEnabled && n > c.bytes {
			t.Errorf("%s with observability off = %d B/op, want <= %d (the caller's interface box)", c.name, n, c.bytes)
		}
	}
}

// TestGeneratedDispatchAllocGuard pins the typed-handle hot path: with
// entry-method handles attached (Compiled mode), an in-node invoke allocates
// nothing — it
// rides a recycled invoke box and the caller's args stay on its stack — and
// there is no reflect.Value boxing, no MethodByName, no coercion (the
// reflective path costs 6). It was 2 (the args slice and the Message) before
// same-node invokes took boxes. A regression here means reflection, or a
// per-message Message, leaked back into the typed dispatch path.
func TestGeneratedDispatchAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard, skipped in -short")
	}
	res := testing.Benchmark(func(b *testing.B) {
		benchDispatch(b, core.Config{PEs: 2, Dispatch: core.StaticDispatch},
			genProto, "Ping", 1)
	})
	if a := res.AllocsPerOp(); a > 1 {
		t.Errorf("typed dispatch = %d allocs/op, want <= 1 (reflection or Message leak?)", a)
	}
}

// TestGeneratedCodecAllocGuard pins the serialized struct-argument path: the
// flat codec Bind gave bench.Vec3 writes three fixed-width fields where the
// fallback runs a full gob encoder/decoder pair per message (~200 allocs).
// The bound proves gob is off the typed wire path; the differential proves
// the baseline still exercises gob (i.e. the guard itself is live). The 4
// left are the new box the ForceSerialize round trip decodes into, its
// argument slot, and the decoded Vec3, which reflection fills in one
// allocation and copies into its interface in a second. It read 5 while
// every flat value decoded also allocated a reader.
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
	t.Logf("typed %d allocs/op, gob baseline %d", gen.AllocsPerOp(), ref.AllocsPerOp())
	if a := gen.AllocsPerOp(); a > 4 {
		t.Errorf("typed serialized struct invoke = %d allocs/op, want <= 4 (gob or a flat reader leak?)", a)
	}
	if g, r := gen.AllocsPerOp(), ref.AllocsPerOp(); r < 3*g {
		t.Errorf("gob baseline = %d allocs/op vs generated %d: differential collapsed, guard no longer measures the fallback", r, g)
	}
}

// TestStencilFineAllocGuard pins what one step of the benchmark's
// stencil_fine job (64^3 grid, 8x8x4 blocks, 2 PEs: 1280 ghost messages a
// step) allocates, taken as the difference between a 40-step and a 10-step
// job so that the grids and the boot cancel out. A ghost message is a
// same-node invoke: it rides a recycled invoke box (Message, index and
// argument slots in one), the caller's args slice stays on its stack, the
// block sends to neighbour indices it computed once and the face buffer is
// recycled, so what is left is the face boxed into an interface — about one
// malloc per message. The run was 1.97 MB and 15.7 mallocs per message with
// guard environments and fresh faces, and 340 kB and 4.01 while each message
// still had its own Message, args slice and index copy; a regression here
// means one of them is back. A second window, steps 300 to 330, holds long
// jobs to the same bound: past iteration 255 the runtime no longer has the
// iteration number boxed, and boxing it once per ghost read 2.00 mallocs per
// message.
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
	for _, from := range []int{10, 300} {
		b0, m0 := job(from)
		b1, m1 := job(from + steps)
		perStep := float64(b1-b0) / steps
		perMsg := float64(m1-m0) / steps / msgsPerStep
		t.Logf("steps %d-%d: %.0f B/step, %.2f mallocs per ghost message", from, from+steps, perStep, perMsg)
		if perStep > 80_000 {
			t.Errorf("steps %d-%d: a step allocates %.0f B, want <= 80000", from, from+steps, perStep)
		}
		if perMsg > 1.5 {
			t.Errorf("steps %d-%d: a ghost message costs %.2f mallocs, want <= 1.5", from, from+steps, perMsg)
		}
	}
}

// TestKVRequestAllocGuard pins what one kvservice read costs end to end on
// the benchmark's kv_closed shape (3 nodes x 1 PE, 24 shards, 64-byte
// values): the external future and its channel, the request's arguments and
// the decoded reply value. Request and reply travel in recycled invoke boxes
// on both sides. It was 1 436 B and 23.8 mallocs while every request armed a
// fresh 20 s time.After, and 733 B and 14.6 while every reply came in a
// Message and a futSetMsg, made again by the decoder; it reads 305 B and 7.7
// now, and the bounds are that plus 15 %. A regression here means a
// per-request timer, Message or something of their size is back on the path.
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
	if bytes > 350 {
		t.Errorf("a Get round trip allocates %.0f B, want <= 350", bytes)
	}
	if mallocs > 8.8 {
		t.Errorf("a Get round trip costs %.1f mallocs, want <= 8.8", mallocs)
	}
}
