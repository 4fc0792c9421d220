// Faulttolerant demonstrates charmgo's fault-tolerance subsystem: a job
// that checkpoints its chare array to buddy memory every few iterations and
// survives losing a whole node mid-run — detection, buddy restore, and
// replay all happen automatically inside charmgo.RunFT.
//
//	go build -o /tmp/ftapp ./examples/faulttolerant
//	go run ./cmd/charmrun -np 3 /tmp/ftapp                  # fault-free
//	go run ./cmd/charmrun -np 3 -kill-node 1@2s /tmp/ftapp  # kill a node
//	go run ./cmd/charmrun -np 3 -drop-rate 0.2 /tmp/ftapp   # lossy network
//
// The final answer is identical in all three runs: recovery restores the
// last committed checkpoint and replays the missing iterations, so a
// deterministic job computes the same result it would have fault-free.
package main

import (
	"fmt"
	"log"
	"time"

	"charmgo"
)

const (
	elems = 32                     // chare array elements, spread over all PEs
	iters = 40                     // total iterations
	every = 5                      // checkpoint every N iterations
	slow  = 100 * time.Millisecond // per-iteration pause so kills land mid-run
)

// Worker holds per-element state that must survive node failures.
type Worker struct {
	charmgo.Chare
	Sum int
}

func init() {
	charmgo.Bind[Worker](
		charmgo.EM2((*Worker).Step),
	)
}

// Step advances one deterministic iteration and contributes the element's
// running sum to a reduction the driver uses as its iteration barrier.
func (w *Worker) Step(it int, done charmgo.Future) {
	w.Sum += it*7 + w.ThisIndex[0]
	w.Contribute(w.Sum, charmgo.SumReducer, done)
}

// drive runs iterations from..iters on the main chare, committing an
// in-memory checkpoint every `every` iterations.
func drive(self *charmgo.Chare, arr charmgo.Proxy, from int) {
	defer self.Exit()
	total := 0
	for it := from; it <= iters; it++ {
		f := self.CreateFuture()
		arr.Call("Step", it, f)
		total = f.Get().(int)
		if it%every == 0 && it < iters {
			start := time.Now()
			epoch, err := self.FTCheckpoint()
			if err != nil {
				log.Fatalf("checkpoint: %v", err)
			}
			fmt.Printf("iter %3d: total %9d, committed epoch %d in %v\n",
				it, total, epoch, time.Since(start).Round(time.Microsecond))
		}
		time.Sleep(slow)
	}
	fmt.Printf("final total after %d iterations: %d\n", iters, total)
}

// register registers the example's chare types.
func register(rt *charmgo.Runtime) { rt.Register(&Worker{}) }

func main() {
	err := charmgo.RunFT(charmgo.Config{PEs: 2}, charmgo.FTJob{
		Register: register,
		Fresh: func(self *charmgo.Chare) {
			arr := self.NewArray(&Worker{}, []int{elems})
			drive(self, arr, 1)
		},
		Restore: func(self *charmgo.Chare, colls map[charmgo.CID]charmgo.Proxy, epoch int64) {
			fmt.Printf("recovered: resuming from checkpoint epoch %d\n", epoch)
			for _, arr := range colls {
				drive(self, arr, int(epoch)*every+1)
				return
			}
			log.Fatal("restore: no collections recovered")
		},
	})
	if err != nil {
		log.Fatal(err)
	}
}
