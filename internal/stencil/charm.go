package stencil

import (
	"fmt"
	"sync"
	"time"

	"charmgo/internal/core"
	"charmgo/internal/ser"
)

// Block is the stencil3d chare: one block of the 3D grid. The control flow
// is message-driven, the natural Charm++/CharmPy style: RecvGhost messages
// carry an iteration number and are buffered by a when-condition until the
// block reaches that iteration; once all neighbor faces for the current
// iteration have arrived the block computes and advances.
type Block struct {
	core.Chare
	G         *Grid
	P         Params
	Iter      int
	MsgCount  int
	NNbrs     int
	LinIdx    int // linear block index (for the synthetic load factor)
	WorkTime  float64
	WindowSec float64 // work since the last LB round (balance metric)
	Done      core.Future
	Stats     core.Future

	// nbr[d] is the index of the neighbour in direction d, nil at the
	// grid's edge, so that a ghost send copies no index. Unexported like
	// Grid.spare: a migrating block leaves it behind and sendGhosts rebuilds
	// it on the new PE.
	nbr [][]int
}

func init() {
	core.Bind[Block](
		core.EM3((*Block).Init),
		core.EM3((*Block).RecvGhost),
		core.EM0((*Block).ReportStats),
		core.EM0((*Block).ResumeFromSync),
	)
}

// Register registers the stencil chare types and argument metadata with a
// runtime. Call on every node before Start. Typed dispatch and argument
// codecs come from the entry-method handles bound in init (core.Bind), the
// analog of Charm++'s charmxi-generated dispatch code.
func Register(rt *core.Runtime) {
	ser.RegisterType(Params{})
	rt.Register(&Block{},
		core.When("RecvGhost", "self.iter == iter"),
		core.ArgNames("RecvGhost", "iter", "dir", "face"),
	)
}

// Init is the block constructor.
func (b *Block) Init(p Params, done, stats core.Future) {
	sx, sy, sz, err := p.Validate()
	if err != nil {
		panic(err)
	}
	b.P = p
	b.Done = done
	b.Stats = stats
	b.G = newBlockData(sx, sy, sz)
	i := b.ThisIndex
	b.G.fill(i[0]*sx, i[1]*sy, i[2]*sz)
	b.LinIdx = (i[0]*p.BY+i[1])*p.BZ + i[2]
	b.NNbrs = 0
	for d := 0; d < numDirs; d++ {
		if _, ok := b.neighbor(d); ok {
			b.NNbrs++
		}
	}
	b.sendGhosts()
}

// neighbor returns the index of the neighbor block in direction d.
func (b *Block) neighbor(d int) ([3]int, bool) {
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

func (b *Block) sendGhosts() {
	if b.NNbrs == 0 {
		// Degenerate single-block decomposition: run straight through.
		b.step()
		return
	}
	if b.nbr == nil {
		b.nbr = make([][]int, numDirs)
		for d := range b.nbr {
			if n, ok := b.neighbor(d); ok {
				b.nbr[d] = n[:]
			}
		}
	}
	proxy := b.ThisProxy() // bound to this PE, whose box stock the sends use
	// One boxed iteration for all the ghosts: past 255 each boxing of the
	// int would be a malloc of its own.
	iter := any(b.Iter)
	for d, n := range b.nbr {
		if n != nil {
			proxy.Elem = n
			proxy.Call("RecvGhost", iter, opposite(d), b.G.packFace(d))
		}
	}
}

// RecvGhost receives one neighbor face for the given iteration. The
// when-condition (installed by Register) defers delivery until this block
// has reached that iteration, so no application-level buffering or explicit
// synchronization is needed (paper section II-E).
func (b *Block) RecvGhost(iter, dir int, face []float64) {
	b.G.unpackGhost(dir, face)
	b.MsgCount++
	if b.MsgCount == b.NNbrs {
		b.MsgCount = 0
		b.step()
	}
}

// step runs the kernel (plus the synthetic imbalance extension), advances
// the iteration, and decides what happens next: more ghosts, an AtSync load
// balancing point, or completion.
func (b *Block) step() {
	t0 := time.Now()
	b.G.compute()
	kernel := time.Since(t0)
	if b.P.WorkScale > 0 {
		SyntheticWork(b.P.WorkScale * float64(b.G.SX*b.G.SY*b.G.SZ))
	}
	if b.P.Imbalance {
		// Extend compute by the paper's alpha factor: wait t_k * alpha_i.
		alpha := Alpha(b.LinIdx, b.P.NumBlocks(), b.Iter)
		BusyWait(time.Duration(float64(kernel) * alpha))
	}
	elapsed := time.Since(t0).Seconds()
	b.WorkTime += elapsed
	b.WindowSec += elapsed
	b.Iter++
	switch {
	case b.Iter >= b.P.Iters:
		b.Contribute(b.G.checksum(), core.SumReducer, b.Done)
	case b.P.LBPeriod > 0 && b.Iter%b.P.LBPeriod == 0:
		b.AtSync()
	default:
		b.sendGhosts()
	}
}

// ResumeFromSync restarts the iteration after a load-balancing round.
func (b *Block) ResumeFromSync() {
	b.WindowSec = 0
	b.sendGhosts()
}

// ReportStats contributes [pe, windowWork, totalWork] per block, gathered at
// the driver for balance analysis.
func (b *Block) ReportStats() {
	b.Contribute([]float64{float64(b.MyPE()), b.WindowSec, b.WorkTime}, core.GatherReducer, b.Stats)
}

// ---- busy-wait calibration ----

var calOnce sync.Once
var unitsPerSecond float64

// BusyWait spins for approximately d, consuming CPU (a sleep would not model
// compute load: it costs no processor time).
func BusyWait(d time.Duration) {
	calOnce.Do(func() {
		t0 := time.Now()
		SyntheticWork(2_000_000)
		el := time.Since(t0).Seconds()
		unitsPerSecond = 2_000_000 / el
	})
	SyntheticWork(d.Seconds() * unitsPerSecond)
}

// Result summarizes one stencil3d run.
type Result struct {
	Impl          string
	PEs           int
	Blocks        int
	Checksum      float64
	WallSeconds   float64
	TimePerStepMS float64
	// MaxOverAvg is the ratio of max to average per-PE work in the final LB
	// window: 1.0 is perfect balance (only meaningful with Imbalance).
	MaxOverAvg float64
	PEWork     []float64
}

// Entry builds the stencil3d program entry point: it creates the block
// array, waits for completion, gathers per-PE work statistics, and fills
// res. Usable both by RunCharm (single process) and by a charmrun-launched
// multi-node job (examples/stencil3d).
func Entry(p Params, res *Result) func(self *core.Chare) {
	return func(self *core.Chare) {
		defer self.Exit()
		res.PEs = self.NumPEs()
		res.Blocks = p.NumBlocks()
		done := self.CreateFuture()
		stats := self.CreateFuture()
		t0 := time.Now()
		arr := self.NewArray(&Block{}, []int{p.BX, p.BY, p.BZ}, p, done, stats)
		sum := done.Get()
		res.WallSeconds = time.Since(t0).Seconds()
		res.Checksum = toFloat(sum)
		res.TimePerStepMS = res.WallSeconds / float64(p.Iters) * 1000
		arr.Call("ReportStats")
		list := stats.Get().([]any)
		work := make([]float64, self.NumPEs())
		for _, it := range list {
			v := it.([]float64)
			work[int(v[0])] += v[1]
		}
		res.PEWork = work
		res.MaxOverAvg = maxOverAvg(work)
	}
}

// RunCharm runs the charm implementation under the given runtime config and
// returns measurements. It creates its own single-node runtime.
func RunCharm(p Params, ccfg core.Config) (Result, error) {
	if _, _, _, err := p.Validate(); err != nil {
		return Result{}, err
	}
	rt := core.NewRuntime(ccfg)
	Register(rt)
	var res Result
	res.Impl = "charm-static"
	if ccfg.Dispatch == core.DynamicDispatch {
		res.Impl = "charm-dynamic"
	}
	rt.Start(Entry(p, &res))
	return res, nil
}

func toFloat(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int:
		return float64(x)
	case int64:
		return float64(x)
	}
	panic(fmt.Sprintf("stencil: unexpected checksum type %T", v))
}

func maxOverAvg(work []float64) float64 {
	var max, total float64
	n := 0
	for _, w := range work {
		total += w
		if w > max {
			max = w
		}
		n++
	}
	if total == 0 {
		return 1
	}
	return max / (total / float64(n))
}
