package core

import (
	"runtime"
	"testing"
	"time"
)

// fsReply answers One with a small int, which the runtime boxes from its
// small-value cache: what a reply allocates is the runtime's own. Hold
// blocks its PE until fsRelease is closed.
type fsReply struct {
	Chare
}

func (r *fsReply) One() int { return 1 }
func (r *fsReply) Hold()    { <-fsRelease }

var fsRelease chan struct{} // TestFutureSetAllocs's, one arm at a time

func init() { Bind[fsReply](EM0R((*fsReply).One), EM0((*fsReply).Hold)) }

// fsCredit is how many replies a future-set flood leaves waiting before it
// waits for a real one.
const fsCredit = 1024

// TestFutureSetAllocs: a future-set allocates nothing of the runtime's own,
// sent to another node (serialized from the sender's stack into the batch,
// decoded into a recycled box there) or to a PE of its own node (a box from
// the sending PE's stock). PE 0 floods One invokes, which cost nothing
// themselves (typed handle, no arguments), to an element on PE 1, on the other
// node or on its own; each names a future that does not exist, so its reply
// is decoded (or taken from its box), dispatched and dropped. Every fsCredit
// invokes the flood waits for a real CallRet. Both arms read 2 allocations or
// more per reply while a future-set travelled as a Message and a futSetMsg,
// made again by the decoder on the receiving node.
//
// Before the count, two windows of invokes queue whole at PE 1 while it is
// held, and their replies whole at PE 0, so that the box stocks grow to what
// a window holds in flight; the count then takes no box fresh
// (boxList.fresh) on either node. The count of
// allocations is process-wide, so its bound leaves room for the waits and
// for the Go runtime's own.
func TestFutureSetAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard, skipped in -short")
	}
	const n = 64 * fsCredit
	for _, c := range []struct {
		name       string
		nodes, pes int
	}{{"remote", 2, 1}, {"same-node", 1, 2}} {
		var rts []*Runtime
		perReply, fresh := -1.0, int64(-1)
		fsRelease = make(chan struct{})
		runMultiNode(t, c.nodes, c.pes, nil, func(rt *Runtime) {
			rt.Register(&fsReply{})
			rts = append(rts, rt)
		}, func(self *Chare) {
			arr := self.NewArray(&fsReply{}, []int{2})
			r := arr.At(1) // on PE 1
			drop := FutureRef{PE: self.MyPE(), ID: 1 << 40}
			flood := func(n int) {
				for i := 1; i <= n; i++ {
					r.invoke("One", nil, drop)
					if i%fsCredit == 0 {
						r.CallRet("One").Get()
					}
				}
			}
			// PE 1 is the last PE of the last node in either shape, and this
			// thread keeps PE 0 from dispatching while it polls: each queue
			// fills whole before it drains.
			pe0, pe1 := rts[0].pes[0], rts[len(rts)-1].pes[c.pes-1]
			waitDepth := func(p *peState, n int) {
				for p.depth() < n {
					time.Sleep(100 * time.Microsecond) // the last batch leaves on the backstop
				}
			}
			r.Call("Hold")
			for i := 0; i < 2*fsCredit; i++ {
				r.invoke("One", nil, drop)
			}
			waitDepth(pe1, 2*fsCredit)
			close(fsRelease)
			waitDepth(pe0, 2*fsCredit) // the replies
			flood(4 * fsCredit)
			var before, after runtime.MemStats
			fresh0 := freshBoxes(rts)
			runtime.ReadMemStats(&before)
			flood(n)
			runtime.ReadMemStats(&after)
			fresh = freshBoxes(rts) - fresh0
			perReply = float64(after.Mallocs-before.Mallocs) / n
		})
		t.Logf("%s: %.4f allocs per reply over %d, %d boxes made fresh", c.name, perReply, n, fresh)
		if perReply < 0 || perReply > 0.02 {
			t.Errorf("%s: a future-set costs %.4f allocs, want 0 (<= 0.02 with the waits)", c.name, perReply)
		}
		if fresh != 0 {
			t.Errorf("%s: the flood made %d boxes fresh, want 0: the stock ran dry", c.name, fresh)
		}
	}
}

func freshBoxes(rts []*Runtime) (n int64) {
	for _, rt := range rts {
		n += rt.boxes.fresh.Load()
	}
	return n
}
