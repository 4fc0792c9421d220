// Package mpi is a miniature MPI implemented on goroutines and mailboxes.
// It plays the role of mpi4py in the paper's evaluation (section V): the
// stencil3d baseline is written against it with the classic
// rank-per-process, one-block-per-rank, Isend/Irecv/Waitall structure.
//
// Supported: blocking and nonblocking point-to-point with source/tag
// wildcards, Barrier, Bcast, Reduce (Sum, Max), Allreduce, Sendrecv.
// Semantics follow MPI where it matters for the baseline: eager buffered
// sends, FIFO matching per (source, tag), collectives called in the same
// order by all ranks.
package mpi

import (
	"fmt"
	"sync"
)

// AnySource matches messages from any rank in Recv/Irecv.
const AnySource = -1

// AnyTag matches any tag in Recv/Irecv.
const AnyTag = -1

// internal collective tags (application tags must be >= 0)
const (
	tagBarrier = -100 - iota
	tagBcast
	tagReduce
)

// Op is a reduction operator for Reduce/Allreduce.
type Op int

// Reduction operators.
const (
	Sum Op = iota
	Max
)

// World is a communicator spanning n ranks.
type World struct {
	n     int
	boxes []*rankBox
}

type envelope struct {
	src, tag int
	data     any
}

type pendingRecv struct {
	src, tag int
	ch       chan envelope
}

type rankBox struct {
	mu         sync.Mutex
	unexpected []envelope
	pending    []*pendingRecv
}

// NewWorld creates a communicator with n ranks.
func NewWorld(n int) *World {
	w := &World{n: n, boxes: make([]*rankBox, n)}
	for i := range w.boxes {
		w.boxes[i] = &rankBox{}
	}
	return w
}

// Run launches fn on every rank of a fresh world and waits for all ranks to
// return (the mpirun analog).
func Run(n int, fn func(c *Comm)) {
	w := NewWorld(n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fn(&Comm{w: w, rank: r})
		}(r)
	}
	wg.Wait()
}

// Comm is one rank's handle on a World.
type Comm struct {
	w    *World
	rank int
}

// Rank returns the calling rank.
func (c *Comm) Rank() int { return c.rank }

// Send performs a buffered (eager) send: it enqueues and returns.
func (c *Comm) Send(dest, tag int, data any) {
	if dest < 0 || dest >= c.w.n {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dest))
	}
	box := c.w.boxes[dest]
	env := envelope{src: c.rank, tag: tag, data: data}
	box.mu.Lock()
	for i, pr := range box.pending {
		if matches(pr.src, pr.tag, env) {
			box.pending = append(box.pending[:i], box.pending[i+1:]...)
			box.mu.Unlock()
			pr.ch <- env
			return
		}
	}
	box.unexpected = append(box.unexpected, env)
	box.mu.Unlock()
}

func matches(wantSrc, wantTag int, env envelope) bool {
	return (wantSrc == AnySource || wantSrc == env.src) &&
		(wantTag == AnyTag || wantTag == env.tag)
}

// Recv blocks until a matching message arrives and returns its payload and
// actual source and tag.
func (c *Comm) Recv(src, tag int) (data any, actualSrc, actualTag int) {
	box := c.w.boxes[c.rank]
	box.mu.Lock()
	for i, env := range box.unexpected {
		if matches(src, tag, env) {
			box.popUnexpected(i)
			box.mu.Unlock()
			return env.data, env.src, env.tag
		}
	}
	pr := &pendingRecv{src: src, tag: tag, ch: make(chan envelope, 1)}
	box.pending = append(box.pending, pr)
	box.mu.Unlock()
	env := <-pr.ch
	return env.data, env.src, env.tag
}

// popUnexpected removes entry i; the common head case is O(1) so a long
// backlog of eager sends drains linearly, not quadratically.
func (b *rankBox) popUnexpected(i int) {
	if i == 0 {
		b.unexpected = b.unexpected[1:]
		return
	}
	b.unexpected = append(b.unexpected[:i:i], b.unexpected[i+1:]...)
}

// Request is a nonblocking operation handle.
type Request struct {
	ch   chan envelope
	env  envelope
	done bool
}

// Isend starts a nonblocking send. With eager buffering it completes
// immediately; the returned request exists for API parity.
func (c *Comm) Isend(dest, tag int, data any) *Request {
	c.Send(dest, tag, data)
	r := &Request{done: true}
	return r
}

// Irecv posts a nonblocking receive.
func (c *Comm) Irecv(src, tag int) *Request {
	box := c.w.boxes[c.rank]
	box.mu.Lock()
	for i, env := range box.unexpected {
		if matches(src, tag, env) {
			box.popUnexpected(i)
			box.mu.Unlock()
			return &Request{done: true, env: env}
		}
	}
	pr := &pendingRecv{src: src, tag: tag, ch: make(chan envelope, 1)}
	box.pending = append(box.pending, pr)
	box.mu.Unlock()
	return &Request{ch: pr.ch}
}

// Wait blocks until the request completes and returns the received payload
// (nil for sends).
func (r *Request) Wait() any {
	if !r.done {
		r.env = <-r.ch
		r.done = true
	}
	return r.env.data
}

// Waitall waits for every request.
func Waitall(reqs []*Request) {
	for _, r := range reqs {
		r.Wait()
	}
}

// Sendrecv sends to dest and receives from src in one (deadlock-free) call.
func (c *Comm) Sendrecv(dest, sendTag int, data any, src, recvTag int) any {
	req := c.Irecv(src, recvTag)
	c.Send(dest, sendTag, data)
	return req.Wait()
}

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() {
	if c.w.n == 1 {
		return
	}
	if c.rank == 0 {
		for i := 1; i < c.w.n; i++ {
			c.Recv(AnySource, tagBarrier)
		}
		for i := 1; i < c.w.n; i++ {
			c.Send(i, tagBarrier, nil)
		}
	} else {
		c.Send(0, tagBarrier, nil)
		c.Recv(0, tagBarrier)
	}
}

// Bcast broadcasts root's value to every rank and returns it.
func (c *Comm) Bcast(root int, data any) any {
	if c.w.n == 1 {
		return data
	}
	if c.rank == root {
		for i := 0; i < c.w.n; i++ {
			if i != root {
				c.Send(i, tagBcast, data)
			}
		}
		return data
	}
	v, _, _ := c.Recv(root, tagBcast)
	return v
}

// Reduce combines every rank's contribution at root with op; non-root ranks
// return nil.
func (c *Comm) Reduce(root int, op Op, data any) any {
	if c.rank != root {
		c.Send(root, tagReduce, data)
		return nil
	}
	acc := cloneNumeric(data)
	received := make(map[int]any, c.w.n-1)
	for i := 0; i < c.w.n-1; i++ {
		v, src, _ := c.Recv(AnySource, tagReduce)
		received[src] = v
	}
	for r := 0; r < c.w.n; r++ {
		if r == root {
			continue
		}
		acc = combine(op, acc, received[r])
	}
	return acc
}

// Allreduce is Reduce to rank 0 followed by Bcast.
func (c *Comm) Allreduce(op Op, data any) any {
	v := c.Reduce(0, op, data)
	return c.Bcast(0, v)
}

// ---- numeric combine ----

func cloneNumeric(v any) any {
	switch x := v.(type) {
	case []float64:
		out := make([]float64, len(x))
		copy(out, x)
		return out
	case []int:
		out := make([]int, len(x))
		copy(out, x)
		return out
	}
	return v
}

func combine(op Op, a, b any) any {
	switch x := a.(type) {
	case int:
		return int(combineI64(op, int64(x), int64(asInt(b))))
	case int64:
		return combineI64(op, x, int64(asInt(b)))
	case float64:
		return combineF64(op, x, asFloat(b))
	case []float64:
		y := b.([]float64)
		if len(x) != len(y) {
			panic("mpi: reduce length mismatch")
		}
		for i := range x {
			x[i] = combineF64(op, x[i], y[i])
		}
		return x
	case []int:
		y := b.([]int)
		if len(x) != len(y) {
			panic("mpi: reduce length mismatch")
		}
		for i := range x {
			x[i] = int(combineI64(op, int64(x[i]), int64(y[i])))
		}
		return x
	}
	panic(fmt.Sprintf("mpi: unsupported reduce type %T", a))
}

func asInt(v any) int {
	switch x := v.(type) {
	case int:
		return x
	case int64:
		return int(x)
	case float64:
		return int(x)
	}
	panic(fmt.Sprintf("mpi: expected integer, got %T", v))
}

func asFloat(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int:
		return float64(x)
	case int64:
		return float64(x)
	}
	panic(fmt.Sprintf("mpi: expected float, got %T", v))
}

func combineI64(op Op, a, b int64) int64 {
	if op == Sum {
		return a + b
	}
	if a > b { // Max
		return a
	}
	return b
}

func combineF64(op Op, a, b float64) float64 {
	if op == Sum {
		return a + b
	}
	if a > b { // Max
		return a
	}
	return b
}
