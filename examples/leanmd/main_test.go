package main

import (
	"testing"

	"charmgo"
	"charmgo/internal/leanmd"
)

// TestRegister registers the chare types leanmd.RunCharm runs this example
// on, on a 1-PE runtime in each dispatch mode. Register checks every type's
// entry-method handles (its Bind call in init) against its methods and
// panics, naming the type and the method, when they have drifted apart:
// here, rather than at the first launch.
func TestRegister(t *testing.T) {
	for _, mode := range []charmgo.DispatchMode{charmgo.StaticDispatch, charmgo.DynamicDispatch} {
		leanmd.Register(charmgo.NewRuntime(charmgo.Config{PEs: 1, Dispatch: mode}))
	}
}
