// Package clean is a charmvet fixture that must produce zero diagnostics
// under the full analyzer suite: a small but idiomatic chare program using
// futures, proxy calls and registered message types correctly.
package clean

import (
	"charmgo/internal/core"
	"charmgo/internal/ser"
)

type Params struct {
	N     int
	Steps int
}

func init() {
	ser.RegisterType(Params{})
}

type Ranks struct {
	core.Chare
	Sum int
}

func (r *Ranks) Setup(p Params) {
	r.Sum = p.N
}

func (r *Ranks) Add(n int) int {
	r.Sum += n
	return r.Sum
}

func (r *Ranks) Broadcast(pr core.Proxy, p Params) {
	pr.Call("Setup", p)
}

func (r *Ranks) Collect(f core.Future) {
	f.Send(r.Sum)
}
