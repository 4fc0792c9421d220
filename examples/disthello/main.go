// Disthello is a charmrun-ready distributed hello world: launched as one
// process it runs single-node; launched by cmd/charmrun it spans multiple
// OS processes connected over TCP, with chares on every PE of every node.
//
//	go run ./examples/disthello                     # single process
//	go build -o /tmp/disthello ./examples/disthello
//	go run ./cmd/charmrun -np 2 -pes 2 /tmp/disthello
package main

import (
	"fmt"
	"log"

	"charmgo"
)

// Member reports which PE it lives on and participates in a reduction.
type Member struct {
	charmgo.Chare
}

func init() {
	charmgo.Bind[Member](
		charmgo.EM0((*Member).Hello),
		charmgo.EM1((*Member).SumPE),
	)
}

// Hello prints the member's location.
func (m *Member) Hello() {
	fmt.Printf("hello from PE %d of %d\n", m.MyPE(), m.NumPEs())
}

// SumPE contributes this member's PE number to a sum reduction.
func (m *Member) SumPE(done charmgo.Future) {
	m.Contribute(int(m.MyPE()), charmgo.SumReducer, done)
}

// register registers the example's chare types.
func register(rt *charmgo.Runtime) { rt.Register(&Member{}) }

func main() {
	err := charmgo.RunFromEnv(charmgo.Config{PEs: 2},
		register,
		func(self *charmgo.Chare) {
			defer self.Exit()
			g := self.NewGroup(&Member{})
			g.CallRet("Hello").Get()
			f := self.CreateFuture()
			g.Call("SumPE", f)
			fmt.Println("sum of PE ids:", f.Get())
		})
	if err != nil {
		log.Fatal(err)
	}
}
