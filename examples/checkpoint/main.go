// Checkpoint demonstrates the fault-tolerance and shrink-expand extensions
// (the paper's future work, section VI): a job accumulates chare state on 4
// PEs, waits for quiescence, checkpoints to disk, and then a second runtime
// restores the same chares onto 2 PEs and keeps computing. Run with:
//
//	go run ./examples/checkpoint
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"charmgo"
)

// Accumulator carries state across the checkpoint.
type Accumulator struct {
	charmgo.Chare
	Total int
}

func init() {
	charmgo.Bind[Accumulator](
		charmgo.EM1((*Accumulator).Add),
		charmgo.EM1((*Accumulator).Report),
		charmgo.EM1((*Accumulator).Where),
	)
}

// Add increases the accumulator.
func (a *Accumulator) Add(v int) { a.Total += v }

// Report contributes the total to a sum reduction.
func (a *Accumulator) Report(done charmgo.Future) {
	a.Contribute(a.Total, charmgo.SumReducer, done)
}

// Where reports the hosting PE.
func (a *Accumulator) Where(done charmgo.Future) {
	a.Contribute([]any{a.ThisIndex[0], int(a.MyPE())}, charmgo.GatherReducer, done)
}

// register registers the example's chare types.
func register(rt *charmgo.Runtime) { rt.Register(&Accumulator{}) }

func main() {
	dir, err := os.MkdirTemp("", "charmgo-ckpt")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "job.ckpt")

	var cid charmgo.CID
	fmt.Println("phase 1: 4 PEs, accumulate, checkpoint")
	charmgo.Run(charmgo.Config{PEs: 4},
		register,
		func(self *charmgo.Chare) {
			defer self.Exit()
			arr := self.NewArray(&Accumulator{}, []int{8})
			cid = arr.CID
			for i := 0; i < 8; i++ {
				arr.At(i).Call("Add", (i+1)*100)
			}
			self.WaitQD() // ensure nothing is in flight
			if err := self.Checkpoint(path); err != nil {
				log.Fatal(err)
			}
			f := self.CreateFuture()
			arr.Call("Report", f)
			fmt.Println("  total before shutdown:", f.Get())
		})

	fmt.Println("phase 2: restore the same chares on 2 PEs (shrink)")
	rt2 := charmgo.NewRuntime(charmgo.Config{PEs: 2})
	register(rt2)
	err = charmgo.Restart(rt2, path, func(self *charmgo.Chare, colls map[charmgo.CID]charmgo.Proxy) {
		defer self.Exit()
		arr := colls[cid]
		f := self.CreateFuture()
		arr.Call("Report", f)
		fmt.Println("  total after restore:", f.Get())
		w := self.CreateFuture()
		arr.Call("Where", w)
		fmt.Println("  element placements (elem, pe):", w.Get())
		// the restored chares keep working
		arr.At(0).Call("Add", 1)
		f2 := self.CreateFuture()
		arr.Call("Report", f2)
		fmt.Println("  total after one more Add:", f2.Get())
	})
	if err != nil {
		log.Fatal(err)
	}
}
