// Quickstart: the paper's section II-B hello-world, extended with groups,
// futures, and a reduction. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"charmgo"
)

// MyChare is the distributed object from the paper's first listing.
type MyChare struct {
	charmgo.Chare
}

func init() {
	charmgo.Bind[MyChare](
		charmgo.EM1((*MyChare).SayHi),
	)
}

// SayHi prints a greeting; invoked remotely through a proxy.
func (m *MyChare) SayHi(msg string) {
	fmt.Printf("%s (delivered on PE %d)\n", msg, m.MyPE())
}

// Worker demonstrates reductions: each group member contributes its PE id.
type Worker struct {
	charmgo.Chare
}

func init() {
	charmgo.Bind[Worker](
		charmgo.EM2((*Worker).Work),
	)
}

// Work contributes data to a sum reduction whose result lands in a future.
func (w *Worker) Work(mult int, done charmgo.Future) {
	w.Contribute(mult*int(w.MyPE()), charmgo.SumReducer, done)
}

// register registers the example's chare types.
func register(rt *charmgo.Runtime) {
	rt.Register(&MyChare{})
	rt.Register(&Worker{})
}

func main() {
	charmgo.Run(charmgo.Config{PEs: 4}, register,
		func(self *charmgo.Chare) {
			defer self.Exit()

			// single chare anywhere, fire-and-forget invocation
			solo := self.NewChare(&MyChare{}, charmgo.AnyPE)
			solo.Call("SayHi", "Hello from a single chare")

			// a Group: one member per PE; a call on the group broadcasts
			g := self.NewGroup(&MyChare{})
			bcastDone := g.CallRet("SayHi", "Hello to every PE")
			bcastDone.Get() // completes when every member has executed

			// reductions: 100 workers sum 3*PE across the group
			workers := self.NewGroup(&Worker{})
			result := self.CreateFuture()
			workers.Call("Work", 3, result)
			fmt.Println("Reduction result is", result.Get())
		})
}
