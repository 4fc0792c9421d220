package stencil

import (
	"time"

	"charmgo/internal/core"
)

// ChanBlock is a stencil3d block written in the direct (threaded) style
// with charm4py-like Channels instead of when-conditioned entry methods:
// one threaded Run loop per block sends faces and receives them in order
// over per-neighbour channels. It computes exactly the same values as
// Block; RunCharmChannels exists to compare the two expression styles
// (message-driven vs direct) on identical work.
type ChanBlock struct {
	core.Chare
	G    *Grid
	P    Params
	Done core.Future
}

func init() {
	core.Bind[ChanBlock](
		core.EM1((*ChanBlock).Init),
		core.EM1((*ChanBlock).Run),
	)
}

// RegisterChannels registers the channel-style block with a runtime.
func RegisterChannels(rt *core.Runtime) {
	rt.Register(&ChanBlock{}, core.Threaded("Run"))
}

// Init prepares the block's grid.
func (b *ChanBlock) Init(p Params) {
	sx, sy, sz, err := p.Validate()
	if err != nil {
		panic(err)
	}
	b.P = p
	b.G = newBlockData(sx, sy, sz)
	i := b.ThisIndex
	b.G.fill(i[0]*sx, i[1]*sy, i[2]*sz)
}

func (b *ChanBlock) neighbor(d int) ([3]int, bool) {
	i := b.ThisIndex
	n := [3]int{i[0], i[1], i[2]}
	switch d {
	case dirXLo:
		n[0]--
	case dirXHi:
		n[0]++
	case dirYLo:
		n[1]--
	case dirYHi:
		n[1]++
	case dirZLo:
		n[2]--
	case dirZHi:
		n[2]++
	}
	if n[0] < 0 || n[0] >= b.P.BX || n[1] < 0 || n[1] >= b.P.BY || n[2] < 0 || n[2] >= b.P.BZ {
		return n, false
	}
	return n, true
}

// Run is the whole iteration loop in direct style.
func (b *ChanBlock) Run(done core.Future) {
	proxy := b.ThisProxy()
	// One channel per existing neighbour. A channel is one shared stream,
	// so both endpoints must name the same port: the axis (d/2) works —
	// the two blocks of a link are distinct peers on every other axis.
	chans := [numDirs]*core.Channel{}
	for d := 0; d < numDirs; d++ {
		if n, ok := b.neighbor(d); ok {
			chans[d] = core.NewChannel(&b.Chare, proxy.At(n[0], n[1], n[2]), d/2)
		}
	}
	for iter := 0; iter < b.P.Iters; iter++ {
		for d := 0; d < numDirs; d++ {
			if chans[d] != nil {
				// send our face toward d; the peer reads it on the channel
				// keyed by the opposite direction from its perspective
				chans[d].Send(b.G.packFace(d))
			}
		}
		for d := 0; d < numDirs; d++ {
			if chans[d] != nil {
				b.G.unpackGhost(d, chans[d].Recv().([]float64))
			}
		}
		b.G.compute()
	}
	b.Contribute(b.G.checksum(), core.SumReducer, done)
}

// RunCharmChannels runs the channel-style implementation.
func RunCharmChannels(p Params, ccfg core.Config) (Result, error) {
	if _, _, _, err := p.Validate(); err != nil {
		return Result{}, err
	}
	rt := core.NewRuntime(ccfg)
	RegisterChannels(rt)
	var res Result
	res.Impl = "charm-channels"
	res.PEs = rt.NumPEs()
	res.Blocks = p.NumBlocks()
	rt.Start(func(self *core.Chare) {
		defer self.Exit()
		done := self.CreateFuture()
		t0 := time.Now()
		arr := self.NewArray(&ChanBlock{}, []int{p.BX, p.BY, p.BZ}, p)
		arr.Call("Run", done)
		res.Checksum = toFloat(done.Get())
		res.WallSeconds = time.Since(t0).Seconds()
		res.TimePerStepMS = res.WallSeconds / float64(p.Iters) * 1000
	})
	return res, nil
}
