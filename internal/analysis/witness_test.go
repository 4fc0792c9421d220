package analysis

import (
	"encoding/gob"
	"fmt"
	"sync"
	"testing"
	"time"

	"charmgo"
	"charmgo/internal/transport"
)

// The witnesses are why each rule stays: every one runs the mistake its
// rule's fixture seeds, in user chare code written against the exported
// facade only, through a real runtime, and asserts the wrong outcome the
// mistake produces. The file is vet-clean and the witnesses pass under
// `go test -race` (make guards runs them at GOMAXPROCS 1, 2 and 8), so
// neither the compiler, go vet nor the race detector sees these mistakes;
// only charmvet does. If the runtime ever starts rejecting a witnessed
// shape, or stops producing the wrong outcome, the witness fails: the rule
// then guards nothing the runtime leaves to the user, and can go too.

// runWitness runs entry as the job's entry point on nodes Mem-connected
// nodes of pes PEs each (node 0 runs it), failing t if the job does not end.
func runWitness(t *testing.T, nodes, pes int, reg func(*charmgo.Runtime), entry func(self *charmgo.Chare)) {
	t.Helper()
	nw := transport.NewMemNetwork(nodes)
	var wg sync.WaitGroup
	for node := 0; node < nodes; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			rt := charmgo.NewRuntime(charmgo.Config{PEs: pes, Transport: nw.Endpoint(node)})
			reg(rt)
			rt.Start(entry)
		}(node)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("witness job did not complete")
	}
}

// EntrySig (CV001): a value receiver. The dispatcher calls the method on a
// copy of the chare, so its update is lost.

type WitnessTally struct {
	charmgo.Chare
	N int
}

func (c WitnessTally) Add(n int) { c.N += n }

func (c *WitnessTally) Total() int { return c.N }

func TestWitnessEntrySig(t *testing.T) {
	var got any
	runWitness(t, 1, 2, func(rt *charmgo.Runtime) { rt.Register(&WitnessTally{}) }, func(self *charmgo.Chare) {
		defer self.Exit()
		c := self.NewChare(&WitnessTally{}, 1)
		c.Call("Add", 5)
		got = c.CallRet("Total").Get()
	})
	if got != 0 {
		t.Errorf("Total after Add(5) through a value receiver = %v, want the lost update (0): entrysig's value-receiver witness is gone", got)
	}
}

// GobSafe (CV002): an entry-method argument whose struct has an unexported
// field. The field arrives zeroed on another node.

type WitnessOrder struct {
	Qty   int
	price int
}

type WitnessDesk struct {
	charmgo.Chare
}

func (d *WitnessDesk) Price(o WitnessOrder) []int { return []int{o.Qty, o.price} }

func TestWitnessGobSafe(t *testing.T) {
	gob.Register(WitnessOrder{})
	var got any
	runWitness(t, 2, 1, func(rt *charmgo.Runtime) { rt.Register(&WitnessDesk{}) }, func(self *charmgo.Chare) {
		defer self.Exit()
		d := self.NewChare(&WitnessDesk{}, 1) // PE 1 is on the other node
		got = d.CallRet("Price", WitnessOrder{Qty: 3, price: 7}).Get()
	})
	if v, ok := got.([]int); !ok || len(v) != 2 || v[0] != 3 || v[1] != 0 {
		t.Errorf("order across nodes = %v, want [3 0] (Qty kept, the unexported price zeroed): gobsafe's witness is gone", got)
	}
}

// NoBlock (CV003): time.Sleep in an entry method. A sibling chare on the
// same PE waits out the whole sleep.

const witnessNap = 100 * time.Millisecond

type WitnessNapper struct {
	charmgo.Chare
}

func (n *WitnessNapper) Nap() { time.Sleep(witnessNap) }

func (n *WitnessNapper) Ping() int { return 1 }

func TestWitnessNoBlock(t *testing.T) {
	var waited time.Duration
	runWitness(t, 1, 2, func(rt *charmgo.Runtime) { rt.Register(&WitnessNapper{}) }, func(self *charmgo.Chare) {
		defer self.Exit()
		sleeper := self.NewChare(&WitnessNapper{}, 1)
		sibling := self.NewChare(&WitnessNapper{}, 1)
		sleeper.CallRet("Ping").Get() // both exist on PE 1 before the clock starts
		sibling.CallRet("Ping").Get()
		start := time.Now()
		sleeper.Call("Nap")
		sibling.CallRet("Ping").Get()
		waited = time.Since(start)
	})
	if waited < witnessNap {
		t.Errorf("sibling's Ping answered after %v, want it stalled behind the %v sleep on its PE: noblock's witness is gone", waited, witnessNap)
	}
}

// MigrateSafe (CV008): chare state that reaches a channel through an
// unexported field. Migration drops the field without an error, and the
// chare resumes on its new PE with a nil channel.

type WitnessLink struct {
	Name string
	wake chan int
}

type WitnessMover struct {
	charmgo.Chare
	Link WitnessLink
}

func (m *WitnessMover) Open(name string) { m.Link = WitnessLink{Name: name, wake: make(chan int, 1)} }

func (m *WitnessMover) Hop(to int) { m.Migrate(charmgo.PE(to)) }

func (m *WitnessMover) Read() string {
	return fmt.Sprintf("%s open=%t pe=%d", m.Link.Name, m.Link.wake != nil, m.MyPE())
}

func TestWitnessMigrateSafe(t *testing.T) {
	var before, after any
	runWitness(t, 1, 2, func(rt *charmgo.Runtime) { rt.Register(&WitnessMover{}) }, func(self *charmgo.Chare) {
		defer self.Exit()
		m := self.NewChare(&WitnessMover{}, 0)
		m.Call("Open", "link")
		before = m.CallRet("Read").Get()
		m.Call("Hop", 1)
		after = m.CallRet("Read").Get()
	})
	if before != "link open=true pe=0" || after != "link open=false pe=1" {
		t.Errorf("link before and after Migrate(1) = %q, %q, want the channel dropped on the way (open=true pe=0, then open=false pe=1): migratesafe's witness is gone", before, after)
	}
}
