package core

import (
	"sync/atomic"
	"testing"
	"time"
)

// Sleeper is background load: each Nap blocks its PE for us microseconds.
type Sleeper struct {
	Chare
}

func (s *Sleeper) Nap(us int, done Future) {
	time.Sleep(time.Duration(us) * time.Microsecond)
	done.Send(1)
}

// SeqRecorder records the sequence numbers it receives, in order.
type SeqRecorder struct {
	Chare
	Seqs []int
}

func (r *SeqRecorder) Recv(seq int) { r.Seqs = append(r.Seqs, seq) }
func (r *SeqRecorder) Take() []int  { return r.Seqs }

// TestPerSenderFIFO checks the delivery-order invariant: messages from one
// sender to one chare arrive in send order, here a 2 000-message flood queued
// behind background load on the target's PE.
func TestPerSenderFIFO(t *testing.T) {
	const n = 2000
	runJob(t, Config{PEs: 4}, func(rt *Runtime) {
		rt.Register(&SeqRecorder{})
		rt.Register(&Sleeper{})
	}, func(self *Chare) {
		target := self.NewChare(&SeqRecorder{}, PE(1))
		noise := self.CreateFuture(16 * 4)
		for i := 0; i < 16; i++ {
			p := self.NewChare(&Sleeper{}, PE(1))
			for m := 0; m < 4; m++ {
				p.Call("Nap", 100, noise)
			}
		}
		for i := 0; i < n; i++ {
			target.Call("Recv", i)
		}
		noise.Get()
		self.WaitQD()
		got := target.CallRet("Take").Get().([]int)
		if len(got) != n {
			t.Fatalf("received %d messages, want %d", len(got), n)
		}
		for i, s := range got {
			if s != i {
				t.Fatalf("FIFO broken at position %d: got seq %d", i, s)
			}
		}
	})
}

// exclBusy flags one in-flight execution per element; exclViolations counts
// concurrent entries, which must stay zero.
var (
	exclBusy       [64]atomic.Int32
	exclViolations atomic.Int64
)

// Exclusive moves to the next PE after every Hit, so its messages keep
// chasing it through forwarding.
type Exclusive struct {
	Chare
	Hits int
}

func (e *Exclusive) Hit(done Future) {
	id := e.ThisIndex[0]
	if !exclBusy[id].CompareAndSwap(0, 1) {
		exclViolations.Add(1)
	}
	time.Sleep(50 * time.Microsecond)
	exclBusy[id].Store(0)
	e.Hits++
	e.Migrate(PE((int(e.MyPE()) + 1) % e.NumPEs()))
	done.Send(1)
}

func (e *Exclusive) Count() int { return e.Hits }

// TestSingleExecution hammers 64 chares that migrate after every message and
// asserts that no element ever ran on two PEs at once and that each handled
// every message exactly once.
func TestSingleExecution(t *testing.T) {
	exclViolations.Store(0)
	const chares = 64
	const msgs = 6
	runJob(t, Config{PEs: 4}, func(rt *Runtime) {
		rt.Register(&Exclusive{})
	}, func(self *Chare) {
		done := self.CreateFuture(chares * msgs)
		arr := self.NewArray(&Exclusive{}, []int{chares})
		for m := 0; m < msgs; m++ {
			for i := 0; i < chares; i++ {
				arr.At(i).Call("Hit", done)
			}
		}
		done.Get()
		self.WaitQD()
		for i := 0; i < chares; i++ {
			if got := arr.At(i).CallRet("Count").Get(); got != msgs {
				t.Errorf("element %d handled %v messages, want %d", i, got, msgs)
			}
		}
	})
	if v := exclViolations.Load(); v != 0 {
		t.Errorf("%d concurrent executions of one element", v)
	}
}
