// Package darray implements a distributed dense vector of float64 on top of
// the charmgo runtime — the paper's future-work item of "higher-level
// abstractions to distribute common data structures like NumPy arrays in a
// way that preserves their APIs" (section VI).
//
// A Vector is partitioned into chunk chares spread over the PEs. The driver
// API is synchronous NumPy/BLAS style (Fill, Axpy, Scale, Dot, Norm, Sum,
// Map, Collect, Stencil1D); each operation is implemented with chare
// messaging and reductions under the hood and returns when complete, so it
// must be called from a threaded entry method (the program entry point
// qualifies).
package darray

import (
	"fmt"
	"math"
	"sync"

	"charmgo/internal/core"
)

// index functions and elementwise maps are registered by name so operations
// can cross nodes (like pool task functions).
var (
	fnMu     sync.RWMutex
	indexFns = map[string]func(i int) float64{}
	mapFns   = map[string]func(x float64) float64{}
)

// RegisterIndexFunc registers an i -> value initializer under a name.
func RegisterIndexFunc(name string, fn func(i int) float64) {
	fnMu.Lock()
	defer fnMu.Unlock()
	indexFns[name] = fn
}

// RegisterMapFunc registers an elementwise map under a name.
func RegisterMapFunc(name string, fn func(x float64) float64) {
	fnMu.Lock()
	defer fnMu.Unlock()
	mapFns[name] = fn
}

func indexFn(name string) func(int) float64 {
	fnMu.RLock()
	defer fnMu.RUnlock()
	fn := indexFns[name]
	if fn == nil {
		panic(fmt.Sprintf("darray: index function %q not registered", name))
	}
	return fn
}

func mapFn(name string) func(float64) float64 {
	fnMu.RLock()
	defer fnMu.RUnlock()
	fn := mapFns[name]
	if fn == nil {
		panic(fmt.Sprintf("darray: map function %q not registered", name))
	}
	return fn
}

// Register registers the chunk chare type with a runtime.
func Register(rt *core.Runtime) {
	rt.Register(&Chunk{})
}

// Chunk is one partition of a distributed vector.
type Chunk struct {
	core.Chare
	N      int // global length
	Chunks int
	Start  int // global index of Data[0]
	Data   []float64

	// stencil scratch state
	HaloLeft  float64
	HaloRight float64
	HaloGot   int
	HaloNeed  int
	Pend      pendingStencil
}

func init() {
	core.Bind[Chunk](
		core.EM1((*Chunk).CollectInto),
		core.EM2((*Chunk).Fill),
		core.EM2((*Chunk).FillIndex),
		core.EM2((*Chunk).GetAt),
		core.EM2((*Chunk).Init),
		core.EM2((*Chunk).Map),
		core.EM1((*Chunk).PartialDotSelf),
		core.EM1((*Chunk).PartialSum),
		core.EM3((*Chunk).RecvAssign),
		core.EM3((*Chunk).RecvAxpy),
		core.EM3((*Chunk).RecvDot),
		core.EM2((*Chunk).RecvHalo),
		core.EM2((*Chunk).Scale),
		core.EM4((*Chunk).SendTo),
		core.EM3((*Chunk).SetAt),
		core.EM5((*Chunk).StencilStart),
	)
}

type pendingStencil struct {
	Active  bool
	A, B, C float64
	Dst     core.Proxy
	Done    core.Future
}

// chunkRange computes chunk i's half-open global range for an n-element
// vector split into c chunks (remainder spread over the first chunks).
func chunkRange(n, c, i int) (start, end int) {
	base := n / c
	rem := n % c
	start = i*base + min(i, rem)
	size := base
	if i < rem {
		size++
	}
	return start, start + size
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Init sizes the chunk.
func (ch *Chunk) Init(n, chunks int) {
	ch.N = n
	ch.Chunks = chunks
	start, end := chunkRange(n, chunks, ch.ThisIndex[0])
	ch.Start = start
	ch.Data = make([]float64, end-start)
}

// Fill sets every element to v and acknowledges through the reduction.
func (ch *Chunk) Fill(v float64, done core.Future) {
	for i := range ch.Data {
		ch.Data[i] = v
	}
	ch.Contribute(nil, core.NopReducer, done)
}

// FillIndex applies a registered index function.
func (ch *Chunk) FillIndex(fnName string, done core.Future) {
	fn := indexFn(fnName)
	for i := range ch.Data {
		ch.Data[i] = fn(ch.Start + i)
	}
	ch.Contribute(nil, core.NopReducer, done)
}

// Map applies a registered elementwise function in place.
func (ch *Chunk) Map(fnName string, done core.Future) {
	fn := mapFn(fnName)
	for i, x := range ch.Data {
		ch.Data[i] = fn(x)
	}
	ch.Contribute(nil, core.NopReducer, done)
}

// Scale multiplies in place.
func (ch *Chunk) Scale(a float64, done core.Future) {
	for i := range ch.Data {
		ch.Data[i] *= a
	}
	ch.Contribute(nil, core.NopReducer, done)
}

// SendTo ships this chunk's data to the matching chunk of another vector,
// invoking the named entry method there (the building block of binary ops).
func (ch *Chunk) SendTo(dst core.Proxy, method string, alpha float64, done core.Future) {
	data := make([]float64, len(ch.Data))
	copy(data, ch.Data)
	dst.At(ch.ThisIndex[0]).Call(method, alpha, data, done)
}

// RecvAxpy implements self += alpha * other for the matching chunk.
func (ch *Chunk) RecvAxpy(alpha float64, other []float64, done core.Future) {
	if len(other) != len(ch.Data) {
		panic("darray: axpy chunk length mismatch")
	}
	for i := range ch.Data {
		ch.Data[i] += alpha * other[i]
	}
	ch.Contribute(nil, core.NopReducer, done)
}

// RecvAssign overwrites this chunk with the sent data.
func (ch *Chunk) RecvAssign(_ float64, other []float64, done core.Future) {
	if len(other) != len(ch.Data) {
		panic("darray: assign chunk length mismatch")
	}
	copy(ch.Data, other)
	ch.Contribute(nil, core.NopReducer, done)
}

// RecvDot computes the partial dot product with the matching chunk and
// contributes it to a sum reduction.
func (ch *Chunk) RecvDot(_ float64, other []float64, done core.Future) {
	if len(other) != len(ch.Data) {
		panic("darray: dot chunk length mismatch")
	}
	var s float64
	for i := range ch.Data {
		s += ch.Data[i] * other[i]
	}
	ch.Contribute(s, core.SumReducer, done)
}

// PartialSum contributes the chunk's element sum.
func (ch *Chunk) PartialSum(done core.Future) {
	var s float64
	for _, x := range ch.Data {
		s += x
	}
	ch.Contribute(s, core.SumReducer, done)
}

// PartialDotSelf contributes the chunk's squared norm.
func (ch *Chunk) PartialDotSelf(done core.Future) {
	var s float64
	for _, x := range ch.Data {
		s += x * x
	}
	ch.Contribute(s, core.SumReducer, done)
}

// CollectInto contributes (start, data) for an ordered gather.
func (ch *Chunk) CollectInto(done core.Future) {
	data := make([]float64, len(ch.Data))
	copy(data, ch.Data)
	ch.Contribute(data, core.GatherReducer, done)
}

// GetAt replies with one element.
func (ch *Chunk) GetAt(i int, done core.Future) {
	done.Send(ch.Data[i-ch.Start])
}

// SetAt stores one element and acknowledges.
func (ch *Chunk) SetAt(i int, v float64, done core.Future) {
	ch.Data[i-ch.Start] = v
	done.Send(nil)
}

// ---- tridiagonal stencil (dst_j = a*x_{j-1} + b*x_j + c*x_{j+1}) ----
// Out-of-range neighbours read as zero (Dirichlet), so with a=c=-1, b=2
// this is the 1D Poisson operator and darray vectors can drive iterative
// solvers (see examples/cg).

// StencilStart begins a stencil application: exchange boundary elements
// with neighbour chunks, then compute.
func (ch *Chunk) StencilStart(a, b, c float64, dst core.Proxy, done core.Future) {
	if ch.Pend.Active {
		panic("darray: overlapping stencil operations on one vector")
	}
	id := ch.ThisIndex[0]
	ch.Pend = pendingStencil{Active: true, A: a, B: b, C: c, Dst: dst, Done: done}
	// note: HaloGot/HaloLeft/HaloRight are NOT reset here — a neighbour's
	// halo may arrive before this broadcast does (no cross-sender ordering)
	ch.HaloNeed = 0
	me := ch.ThisProxy()
	if id > 0 {
		ch.HaloNeed++
		if len(ch.Data) > 0 {
			me.At(id-1).Call("RecvHalo", true, ch.Data[0])
		} else {
			me.At(id-1).Call("RecvHalo", true, 0.0)
		}
	}
	if id < ch.Chunks-1 {
		ch.HaloNeed++
		if len(ch.Data) > 0 {
			me.At(id+1).Call("RecvHalo", false, ch.Data[len(ch.Data)-1])
		} else {
			me.At(id+1).Call("RecvHalo", false, 0.0)
		}
	}
	if ch.HaloGot >= ch.HaloNeed {
		ch.stencilCompute()
	}
}

// RecvHalo stores a neighbour's boundary element. fromRight reports whether
// the sender is the right-hand neighbour.
func (ch *Chunk) RecvHalo(fromRight bool, v float64) {
	if fromRight {
		ch.HaloRight = v
	} else {
		ch.HaloLeft = v
	}
	ch.HaloGot++
	if ch.Pend.Active && ch.HaloGot >= ch.HaloNeed {
		ch.stencilCompute()
	}
}

func (ch *Chunk) stencilCompute() {
	p := ch.Pend
	ch.Pend = pendingStencil{}
	ch.HaloGot = 0
	out := make([]float64, len(ch.Data))
	for j := range ch.Data {
		left := ch.HaloLeft
		if j > 0 {
			left = ch.Data[j-1]
		}
		right := ch.HaloRight
		if j < len(ch.Data)-1 {
			right = ch.Data[j+1]
		}
		out[j] = p.A*left + p.B*ch.Data[j] + p.C*right
	}
	p.Dst.At(ch.ThisIndex[0]).Call("RecvAssign", 0.0, out, p.Done)
}

// ---- driver-side API ----

// Vector is the driver handle for a distributed vector.
type Vector struct {
	Proxy  core.Proxy
	N      int
	Chunks int

	self *core.Chare
}

// New creates a distributed vector of length n split into the given number
// of chunks (chares). Must be called from a chare (e.g. the entry point).
func New(self *core.Chare, n, chunks int) *Vector {
	if chunks <= 0 || n < 0 || chunks > n && n > 0 {
		panic(fmt.Sprintf("darray: invalid vector shape n=%d chunks=%d", n, chunks))
	}
	proxy := self.NewArray(&Chunk{}, []int{chunks}, n, chunks)
	return &Vector{Proxy: proxy, N: n, Chunks: chunks, self: self}
}

func (v *Vector) bcastWait(method string, args ...any) {
	done := v.self.CreateFuture()
	v.Proxy.Call(method, append(args, done)...)
	done.Get()
}

func (v *Vector) compat(x *Vector) {
	if v.N != x.N || v.Chunks != x.Chunks {
		panic(fmt.Sprintf("darray: shape mismatch: (%d,%d) vs (%d,%d)", v.N, v.Chunks, x.N, x.Chunks))
	}
}

// Fill sets every element to val.
func (v *Vector) Fill(val float64) { v.bcastWait("Fill", val) }

// FillIndex initializes element i to fn(i) for a registered index function.
func (v *Vector) FillIndex(fnName string) { v.bcastWait("FillIndex", fnName) }

// Map applies a registered elementwise function in place.
func (v *Vector) Map(fnName string) { v.bcastWait("Map", fnName) }

// Scale multiplies every element by a.
func (v *Vector) Scale(a float64) { v.bcastWait("Scale", a) }

// Axpy computes v += alpha * x.
func (v *Vector) Axpy(alpha float64, x *Vector) {
	v.compat(x)
	done := v.self.CreateFuture()
	x.Proxy.Call("SendTo", v.Proxy, "RecvAxpy", alpha, done)
	done.Get()
}

// Assign copies x into v.
func (v *Vector) Assign(x *Vector) {
	v.compat(x)
	done := v.self.CreateFuture()
	x.Proxy.Call("SendTo", v.Proxy, "RecvAssign", 0.0, done)
	done.Get()
}

// Copy returns a new vector with the same contents.
func (v *Vector) Copy() *Vector {
	out := New(v.self, v.N, v.Chunks)
	out.Assign(v)
	return out
}

// Dot returns the inner product <v, x>.
func (v *Vector) Dot(x *Vector) float64 {
	if x == v {
		return v.dotSelf()
	}
	v.compat(x)
	done := v.self.CreateFuture()
	x.Proxy.Call("SendTo", v.Proxy, "RecvDot", 0.0, done)
	return done.Get().(float64)
}

func (v *Vector) dotSelf() float64 {
	done := v.self.CreateFuture()
	v.Proxy.Call("PartialDotSelf", done)
	return done.Get().(float64)
}

// Norm returns the Euclidean norm.
func (v *Vector) Norm() float64 { return math.Sqrt(v.dotSelf()) }

// Sum returns the element sum.
func (v *Vector) Sum() float64 {
	done := v.self.CreateFuture()
	v.Proxy.Call("PartialSum", done)
	return done.Get().(float64)
}

// Get fetches one element.
func (v *Vector) Get(i int) float64 {
	done := v.self.CreateFuture()
	v.Proxy.At(v.chunkOf(i)).Call("GetAt", i, done)
	return done.Get().(float64)
}

// Set stores one element (synchronously).
func (v *Vector) Set(i int, val float64) {
	done := v.self.CreateFuture()
	v.Proxy.At(v.chunkOf(i)).Call("SetAt", i, val, done)
	done.Get()
}

func (v *Vector) chunkOf(i int) int {
	if i < 0 || i >= v.N {
		panic(fmt.Sprintf("darray: index %d out of range [0,%d)", i, v.N))
	}
	for c := 0; c < v.Chunks; c++ {
		if s, e := chunkRange(v.N, v.Chunks, c); i >= s && i < e {
			return c
		}
	}
	panic("unreachable")
}

// Collect gathers the full vector at the caller.
func (v *Vector) Collect() []float64 {
	done := v.self.CreateFuture()
	v.Proxy.Call("CollectInto", done)
	parts := done.Get().([]any) // gather: ordered by chunk index
	out := make([]float64, 0, v.N)
	for _, p := range parts {
		out = append(out, p.([]float64)...)
	}
	return out
}

// Stencil1D computes dst_j = a*v_{j-1} + b*v_j + c*v_{j+1} (zero boundary)
// into dst, exchanging chunk boundaries between neighbours.
func (v *Vector) Stencil1D(dst *Vector, a, b, c float64) {
	v.compat(dst)
	done := v.self.CreateFuture()
	v.Proxy.Call("StencilStart", a, b, c, dst.Proxy, done)
	done.Get()
}
