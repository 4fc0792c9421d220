// Package wave2d implements the classic charm4py wave2d example: the 2D
// wave equation integrated with a leapfrog scheme on a block-decomposed
// grid, with when-conditioned halo exchange between block chares. It serves
// as a second, independently-written application exercising the runtime's
// message-driven iteration pattern (DESIGN.md S11 is the first).
package wave2d

import (
	"fmt"
	"math"
	"sync"
	"time"

	"charmgo/internal/core"
	"charmgo/internal/ser"
)

// Params configures a wave2d run.
type Params struct {
	// Grid is the global square grid edge.
	Grid int
	// BX, BY are block counts per dimension.
	BX, BY int
	// Steps is the number of leapfrog steps.
	Steps int
	// C2 is (c*dt/dx)^2, the squared Courant number (stability: <= 0.5).
	C2 float64
	// PulseAmp is the initial Gaussian pulse amplitude.
	PulseAmp float64
}

// Validate checks divisibility and stability.
func (p Params) Validate() (sx, sy int, err error) {
	if p.BX <= 0 || p.BY <= 0 || p.Grid%p.BX != 0 || p.Grid%p.BY != 0 {
		return 0, 0, fmt.Errorf("wave2d: grid %d not divisible by blocks %dx%d", p.Grid, p.BX, p.BY)
	}
	if p.C2 <= 0 || p.C2 > 0.5 {
		return 0, 0, fmt.Errorf("wave2d: C2=%v outside the stable range (0, 0.5]", p.C2)
	}
	return p.Grid / p.BX, p.Grid / p.BY, nil
}

// pulse is the initial condition at global cell (x, y).
func pulse(p Params, x, y int) float64 {
	cx, cy := float64(p.Grid)/2, float64(p.Grid)/2
	dx, dy := float64(x)-cx, float64(y)-cy
	sigma := float64(p.Grid) / 12
	return p.PulseAmp * math.Exp(-(dx*dx+dy*dy)/(2*sigma*sigma))
}

// field is one (sx+2) x (sy+2) block with ghost cells.
type field struct {
	SX, SY int
	V      []float64
}

func newField(sx, sy int) *field {
	return &field{SX: sx, SY: sy, V: make([]float64, (sx+2)*(sy+2))}
}

func (f *field) at(x, y int) int { return x*(f.SY+2) + y }

// leapfrog computes next = 2*cur - prev + c2 * laplacian(cur) interior.
func leapfrog(prev, cur, next *field, c2 float64) {
	for x := 1; x <= cur.SX; x++ {
		for y := 1; y <= cur.SY; y++ {
			i := cur.at(x, y)
			lap := cur.V[cur.at(x-1, y)] + cur.V[cur.at(x+1, y)] +
				cur.V[cur.at(x, y-1)] + cur.V[cur.at(x, y+1)] - 4*cur.V[i]
			next.V[i] = 2*cur.V[i] - prev.V[i] + c2*lap
		}
	}
}

func (f *field) energy() float64 {
	var e float64
	for x := 1; x <= f.SX; x++ {
		for y := 1; y <= f.SY; y++ {
			v := f.V[f.at(x, y)]
			e += v * v
		}
	}
	return e
}

// four halo directions
const (
	dXLo = iota
	dXHi
	dYLo
	dYHi
)

func (f *field) packEdge(d int) []float64 {
	switch d {
	case dXLo, dXHi:
		x := 1
		if d == dXHi {
			x = f.SX
		}
		out := make([]float64, f.SY)
		for y := 1; y <= f.SY; y++ {
			out[y-1] = f.V[f.at(x, y)]
		}
		return out
	default:
		y := 1
		if d == dYHi {
			y = f.SY
		}
		out := make([]float64, f.SX)
		for x := 1; x <= f.SX; x++ {
			out[x-1] = f.V[f.at(x, y)]
		}
		return out
	}
}

func (f *field) unpackGhost(d int, data []float64) {
	switch d {
	case dXLo, dXHi:
		x := 0
		if d == dXHi {
			x = f.SX + 1
		}
		for y := 1; y <= f.SY; y++ {
			f.V[f.at(x, y)] = data[y-1]
		}
	default:
		y := 0
		if d == dYHi {
			y = f.SY + 1
		}
		for x := 1; x <= f.SX; x++ {
			f.V[f.at(x, y)] = data[x-1]
		}
	}
}

// Block is the wave2d chare.
type Block struct {
	core.Chare
	P        Params
	Prev     *field
	Cur      *field
	Next     *field
	Iter     int
	MsgCount int
	NNbrs    int
	Done     core.Future
}

func init() {
	core.Bind[Block](
		core.EM1((*Block).CollectField),
		core.EM2((*Block).Init),
		core.EM3((*Block).RecvEdge),
	)
}

var regOnce sync.Once

// Register registers the wave2d chare type with a runtime.
func Register(rt *core.Runtime) {
	regOnce.Do(func() { ser.RegisterType(Params{}) })
	rt.Register(&Block{},
		core.When("RecvEdge", "self.iter == iter"),
		core.ArgNames("RecvEdge", "iter", "dir", "edge"),
	)
}

// Init builds the block's fields and seeds the pulse; the first step's
// edges are sent immediately.
func (b *Block) Init(p Params, done core.Future) {
	sx, sy, err := p.Validate()
	if err != nil {
		panic(err)
	}
	b.P = p
	b.Done = done
	b.Prev = newField(sx, sy)
	b.Cur = newField(sx, sy)
	b.Next = newField(sx, sy)
	ox, oy := b.ThisIndex[0]*sx, b.ThisIndex[1]*sy
	for x := 1; x <= sx; x++ {
		for y := 1; y <= sy; y++ {
			v := pulse(p, ox+x-1, oy+y-1)
			b.Cur.V[b.Cur.at(x, y)] = v
			b.Prev.V[b.Prev.at(x, y)] = v // zero initial velocity
		}
	}
	b.NNbrs = 0
	for d := 0; d < 4; d++ {
		if _, _, ok := b.neighbor(d); ok {
			b.NNbrs++
		}
	}
	b.sendEdges()
}

func (b *Block) neighbor(d int) (int, int, bool) {
	nx, ny := b.ThisIndex[0], b.ThisIndex[1]
	switch d {
	case dXLo:
		nx--
	case dXHi:
		nx++
	case dYLo:
		ny--
	case dYHi:
		ny++
	}
	if nx < 0 || nx >= b.P.BX || ny < 0 || ny >= b.P.BY {
		return 0, 0, false
	}
	return nx, ny, true
}

func (b *Block) sendEdges() {
	if b.NNbrs == 0 {
		b.step()
		return
	}
	proxy := b.ThisProxy()
	for d := 0; d < 4; d++ {
		if nx, ny, ok := b.neighbor(d); ok {
			proxy.At(nx, ny).Call("RecvEdge", b.Iter, d^1, b.Cur.packEdge(d))
		}
	}
}

// RecvEdge receives a neighbour edge for this iteration (when-buffered).
func (b *Block) RecvEdge(iter, dir int, edge []float64) {
	b.Cur.unpackGhost(dir, edge)
	b.MsgCount++
	if b.MsgCount == b.NNbrs {
		b.MsgCount = 0
		b.step()
	}
}

func (b *Block) step() {
	leapfrog(b.Prev, b.Cur, b.Next, b.P.C2)
	b.Prev, b.Cur, b.Next = b.Cur, b.Next, b.Prev
	b.Iter++
	if b.Iter >= b.P.Steps {
		b.Contribute(b.Cur.energy(), core.SumReducer, b.Done)
		return
	}
	b.sendEdges()
}

// CollectField contributes (blockIdx, interior values) for rendering.
func (b *Block) CollectField(done core.Future) {
	out := make([]float64, 0, b.Cur.SX*b.Cur.SY)
	for x := 1; x <= b.Cur.SX; x++ {
		for y := 1; y <= b.Cur.SY; y++ {
			out = append(out, b.Cur.V[b.Cur.at(x, y)])
		}
	}
	b.Contribute(out, core.GatherReducer, done)
}

// Result summarizes one run.
type Result struct {
	Energy        float64
	WallSeconds   float64
	TimePerStepMS float64
	Field         []float64 // row-major global field (if collected)
}

// RunCharm runs the charm implementation.
func RunCharm(p Params, ccfg core.Config, collect bool) (Result, error) {
	if _, _, err := p.Validate(); err != nil {
		return Result{}, err
	}
	rt := core.NewRuntime(ccfg)
	Register(rt)
	var res Result
	rt.Start(func(self *core.Chare) {
		defer self.Exit()
		done := self.CreateFuture()
		t0 := time.Now()
		arr := self.NewArray(&Block{}, []int{p.BX, p.BY}, p, done)
		res.Energy = done.Get().(float64)
		res.WallSeconds = time.Since(t0).Seconds()
		res.TimePerStepMS = res.WallSeconds / float64(p.Steps) * 1000
		if collect {
			f := self.CreateFuture()
			arr.Call("CollectField", f)
			parts := f.Get().([]any) // gather ordered by block index
			res.Field = assemble(p, parts)
		}
	})
	return res, nil
}

// assemble stitches per-block interiors (gathered in index order) into a
// row-major global field.
func assemble(p Params, parts []any) []float64 {
	sx, sy, _ := p.Validate()
	out := make([]float64, p.Grid*p.Grid)
	for bi, raw := range parts {
		block := raw.([]float64)
		bx, by := bi/p.BY, bi%p.BY
		k := 0
		for x := 0; x < sx; x++ {
			for y := 0; y < sy; y++ {
				gx, gy := bx*sx+x, by*sy+y
				out[gx*p.Grid+gy] = block[k]
				k++
			}
		}
	}
	return out
}
