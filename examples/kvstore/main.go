// Kvstore is the kvservice precursor: a sharded in-memory key-value store
// under skewed load, built to exercise the live introspection stack. Each
// Shard is a sparse-array element owning one hash bucket; a Driver group
// member on every PE issues Zipf-distributed gets and puts against the
// shards, so a handful of hot shards dominate the load — exactly the
// imbalance `charmgo top`'s hottest-chares table and per-PE utilization
// bars exist to show. Launch it under charmrun with introspection on and
// watch it live:
//
//	go build -o /tmp/kvstore ./examples/kvstore
//	go run ./cmd/charmrun -np 3 -pes 2 -ccs-addr 127.0.0.1:9300 /tmp/kvstore -- -seconds 30
//	go run ./cmd/charmgo top                      # another terminal
//	curl -s http://127.0.0.1:9300/introspect      # raw JSON
//	curl -s -X POST http://127.0.0.1:9300/introspect/lb   # force an LB round
//
// Run single-process (go run ./examples/kvstore) it still works — one node,
// no remote endpoints, same skew.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"charmgo"
	"charmgo/internal/lb"
)

// Shard owns one bucket of the keyspace. Writes to hot shards carry a
// synthetic CPU cost so the per-element load the LB/introspection layer
// measures actually diverges across shards.
type Shard struct {
	charmgo.Chare
	Data map[string]string
}

func init() {
	charmgo.Bind[Shard](
		charmgo.EM1((*Shard).Count),
		charmgo.EM1R((*Shard).Get),
		charmgo.EM2((*Shard).Put),
	)
}

// hotness returns the extra work factor for this shard: shard 0 is the
// hottest, cost decays with the index (mirrors the Zipf op distribution).
func (s *Shard) hotness() int {
	return 1 + 64/(1+s.ThisIndex[0])
}

// Put stores a key and burns CPU proportional to the shard's hotness.
func (s *Shard) Put(key, val string) {
	if s.Data == nil {
		s.Data = make(map[string]string)
	}
	s.Data[key] = val
	spin(s.hotness())
}

// Get returns the stored value (empty string when absent).
func (s *Shard) Get(key string) string {
	spin(s.hotness() / 4)
	return s.Data[key]
}

// Count contributes this shard's key count to a sum reduction.
func (s *Shard) Count(done charmgo.Future) {
	s.Contribute(len(s.Data), charmgo.SumReducer, done)
}

// spin does ~n microseconds of pure CPU work; synthetic load stands in for
// real storage-engine work without timers in the hot path.
func spin(n int) {
	x := 1
	for i := 0; i < n*300; i++ {
		x = x*1664525 + 1013904223
	}
	_ = x
}

// Driver generates client traffic from its own PE.
type Driver struct {
	charmgo.Chare
}

func init() {
	charmgo.Bind[Driver](
		charmgo.EM5((*Driver).Round),
	)
}

// Round issues ops Zipf-skewed operations against the shard array (70%
// puts, 30% gets) and contributes the count to the round barrier. It is a
// threaded entry method: gets block on futures mid-method.
func (d *Driver) Round(shards charmgo.Proxy, nshards, ops int, round int64, done charmgo.Future) {
	rng := rand.New(rand.NewSource(int64(d.MyPE())*1_000_003 + round))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(nshards-1))
	for i := 0; i < ops; i++ {
		sh := int(zipf.Uint64())
		key := fmt.Sprintf("k%05d", rng.Intn(8192))
		if rng.Intn(10) < 7 {
			shards.At(sh).Call("Put", key, fmt.Sprintf("v%d-%d", round, i))
		} else {
			_ = shards.At(sh).CallRet("Get", key).Get()
		}
	}
	d.Contribute(ops, charmgo.SumReducer, done)
}

// register registers the example's chare types.
func register(rt *charmgo.Runtime) {
	rt.Register(&Shard{})
	rt.Register(&Driver{}, charmgo.Threaded("Round"))
}

func main() {
	shardsN := flag.Int("shards", 32, "number of key-value shards")
	seconds := flag.Int("seconds", 10, "how long to generate load")
	ops := flag.Int("ops", 200, "operations per driver per round")
	flag.Parse()

	// GreedyLB is wired in (but never scheduled by the shards themselves) so
	// a POST to /introspect/lb can force a migration round against the skew.
	err := charmgo.RunFromEnv(charmgo.Config{PEs: 2, LB: lb.Greedy{}},
		register,
		func(self *charmgo.Chare) {
			defer self.Exit()
			shards := self.NewSparseArray(&Shard{}, 1)
			for i := 0; i < *shardsN; i++ {
				shards.Insert([]int{i})
			}
			shards.DoneInserting()
			drivers := self.NewGroup(&Driver{})

			deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
			total, round := 0, int64(0)
			start := time.Now()
			for time.Now().Before(deadline) {
				round++
				f := self.CreateFuture()
				drivers.Call("Round", shards, *shardsN, *ops, round, f)
				total += f.Get().(int)
				if round%20 == 0 {
					fmt.Printf("round %4d: %8d ops total (%.0f ops/s)\n",
						round, total, float64(total)/time.Since(start).Seconds())
				}
			}
			cf := self.CreateFuture()
			shards.Call("Count", cf)
			fmt.Printf("done: %d ops over %d rounds, %d keys resident across %d shards\n",
				total, round, cf.Get().(int), *shardsN)
		})
	if err != nil {
		log.Fatal(err)
	}
}
