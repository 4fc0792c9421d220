package leanmd

import (
	"fmt"
	"sort"
	"time"

	"charmgo/internal/core"
	"charmgo/internal/ser"
)

// Cell is one spatial bin of atoms (3D chare array element).
type Cell struct {
	core.Chare
	P        Params
	Step     int
	Xs, Vs   []float64 // particle positions and velocities (3N packed)
	Fs       []float64 // force accumulator for the current step
	NGot     int       // force messages received this step
	AGot     int       // atom-exchange messages received this step
	InXs     []float64 // atoms arriving during an exchange
	InVs     []float64
	Pairs    [][]int // the 6D compute indices this cell participates in
	Nbrs     [][]int // unique neighbor cell indices (for atom exchange)
	Computes core.Proxy
	Done     core.Future
}

func init() {
	core.Bind[Cell](
		core.EM1((*Cell).Init),
		core.EM3((*Cell).RecvAtoms),
		core.EM2((*Cell).RecvForces),
		core.EM0((*Cell).ReportSummary),
		core.EM0((*Cell).ResumeFromSync),
		core.EM2((*Cell).Start),
	)
}

// Compute calculates Lennard-Jones forces for one pair of adjacent cells
// (sparse 6D chare array element). A compute whose two halves are the same
// cell handles intra-cell interactions.
type Compute struct {
	core.Chare
	P     Params
	Cells core.Proxy
	Step  int
	Got   int
	XA    []float64
	XB    []float64
}

func init() {
	core.Bind[Compute](
		core.EM2((*Compute).Init),
		core.EM3((*Compute).RecvCoords),
	)
}

// Register registers LeanMD chare types with a runtime. Typed dispatch and
// argument codecs come from the entry-method handles bound in init
// (core.Bind).
func Register(rt *core.Runtime) {
	ser.RegisterType(Params{})
	rt.Register(&Cell{},
		core.When("RecvForces", "self.step == step"),
		core.ArgNames("RecvForces", "step", "fs"),
		core.When("RecvAtoms", "self.step == step"),
		core.ArgNames("RecvAtoms", "step", "xs", "vs"),
	)
	rt.Register(&Compute{},
		core.When("RecvCoords", "self.step == step"),
		core.ArgNames("RecvCoords", "step", "which", "xs"),
	)
}

// cellKey orders cell indices lexicographically.
func cellKey(c []int) string { return fmt.Sprintf("%04d.%04d.%04d", c[0], c[1], c[2]) }

// neighborsOf returns the unique neighbor cells of c under periodic
// boundaries (26 for dims >= 3).
func neighborsOf(p Params, c []int) [][]int {
	seen := map[string]bool{cellKey(c): true}
	var out [][]int
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for dz := -1; dz <= 1; dz++ {
				n := []int{
					(c[0] + dx + p.CX) % p.CX,
					(c[1] + dy + p.CY) % p.CY,
					(c[2] + dz + p.CZ) % p.CZ,
				}
				if k := cellKey(n); !seen[k] {
					seen[k] = true
					out = append(out, n)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return cellKey(out[i]) < cellKey(out[j]) })
	return out
}

// pairIndex builds the canonical 6D compute index for cells a and b.
func pairIndex(a, b []int) []int {
	if cellKey(a) > cellKey(b) {
		a, b = b, a
	}
	return []int{a[0], a[1], a[2], b[0], b[1], b[2]}
}

// AllPairs enumerates every canonical compute index for the configuration.
func AllPairs(p Params) [][]int {
	var out [][]int
	for cx := 0; cx < p.CX; cx++ {
		for cy := 0; cy < p.CY; cy++ {
			for cz := 0; cz < p.CZ; cz++ {
				me := []int{cx, cy, cz}
				out = append(out, pairIndex(me, me))
				for _, n := range neighborsOf(p, me) {
					if cellKey(me) < cellKey(n) {
						out = append(out, pairIndex(me, n))
					}
				}
			}
		}
	}
	return out
}

// Init seeds the cell's particles and computes its pair and neighbor lists.
func (c *Cell) Init(p Params) {
	c.P = p
	me := c.ThisIndex
	c.Xs, c.Vs = initCell(p, me[0], me[1], me[2])
	c.Nbrs = neighborsOf(p, me)
	c.Pairs = append(c.Pairs, pairIndex(me, me))
	for _, n := range c.Nbrs {
		c.Pairs = append(c.Pairs, pairIndex(me, n))
	}
}

// Start begins the simulation: the cell records the computes proxy and the
// completion future, then sends its coordinates for step 0.
func (c *Cell) Start(computes core.Proxy, done core.Future) {
	c.Computes = computes
	c.Done = done
	if c.P.Steps == 0 {
		c.finish()
		return
	}
	c.sendCoords()
}

func (c *Cell) sendCoords() {
	me := c.ThisIndex
	c.Fs = make([]float64, len(c.Xs))
	for _, pr := range c.Pairs {
		which := 0
		if !(pr[0] == me[0] && pr[1] == me[1] && pr[2] == me[2]) {
			which = 1
		}
		xs := make([]float64, len(c.Xs))
		copy(xs, c.Xs)
		c.Computes.At(pr...).Call("RecvCoords", c.Step, which, xs)
	}
}

// RecvForces accumulates a compute's force contribution for this step
// (buffered by a when-condition until the cell reaches that step).
func (c *Cell) RecvForces(step int, fs []float64) {
	for i := range fs {
		c.Fs[i] += fs[i]
	}
	c.NGot++
	if c.NGot < len(c.Pairs) {
		return
	}
	c.NGot = 0
	bx, by, bz := c.P.Box()
	integrate(c.Xs, c.Vs, c.Fs, c.P.DT, bx, by, bz)
	c.Step++
	if c.Step < c.P.Steps && c.P.LBPeriod > 0 && c.Step%c.P.LBPeriod == 0 {
		// quiescent point for this cell: all forces consumed, no coords for
		// the next step sent yet — safe to migrate
		c.AtSync()
		return
	}
	c.advance()
}

// ResumeFromSync continues the simulation after a load-balancing round
// (the cell may now live on a different PE).
func (c *Cell) ResumeFromSync() {
	c.advance()
}

func (c *Cell) advance() {
	switch {
	case c.Step >= c.P.Steps:
		c.finish()
	case c.P.MigrateEvery > 0 && c.Step%c.P.MigrateEvery == 0:
		c.sendAtoms()
	default:
		c.sendCoords()
	}
}

// sendAtoms partitions particles by their current cell and ships leavers to
// the owning neighbor cells (every neighbor gets a message, possibly empty,
// so arrival counting is deterministic).
func (c *Cell) sendAtoms() {
	me := c.ThisIndex
	outX := map[string][]float64{}
	outV := map[string][]float64{}
	var keepX, keepV []float64
	n := len(c.Xs) / 3
	for i := 0; i < n; i++ {
		cx := int(c.Xs[3*i] / c.P.CellSize)
		cy := int(c.Xs[3*i+1] / c.P.CellSize)
		cz := int(c.Xs[3*i+2] / c.P.CellSize)
		cx, cy, cz = clampCell(cx, c.P.CX), clampCell(cy, c.P.CY), clampCell(cz, c.P.CZ)
		if cx == me[0] && cy == me[1] && cz == me[2] {
			keepX = append(keepX, c.Xs[3*i:3*i+3]...)
			keepV = append(keepV, c.Vs[3*i:3*i+3]...)
			continue
		}
		k := cellKey([]int{cx, cy, cz})
		outX[k] = append(outX[k], c.Xs[3*i:3*i+3]...)
		outV[k] = append(outV[k], c.Vs[3*i:3*i+3]...)
	}
	c.Xs, c.Vs = keepX, keepV
	cells := c.ThisProxy()
	for _, nb := range c.Nbrs {
		k := cellKey(nb)
		cells.At(nb...).Call("RecvAtoms", c.Step, outX[k], outV[k])
		delete(outX, k)
	}
	// atoms that moved more than one cell in MigrateEvery steps would be
	// lost; with a sane DT this cannot happen, so treat it as an error
	for k := range outX {
		panic(fmt.Sprintf("leanmd: cell %v: atom crossed more than one cell (to %s); DT too large", me, k))
	}
}

func clampCell(c, n int) int {
	// positions are wrapped in integrate, so c is already in [0, n); this
	// guards the x == box edge case from float rounding
	if c < 0 {
		return n - 1
	}
	if c >= n {
		return 0
	}
	return c
}

// RecvAtoms merges atoms arriving from a neighbor during an exchange.
func (c *Cell) RecvAtoms(step int, xs, vs []float64) {
	c.InXs = append(c.InXs, xs...)
	c.InVs = append(c.InVs, vs...)
	c.AGot++
	if c.AGot < len(c.Nbrs) {
		return
	}
	c.AGot = 0
	c.Xs = append(c.Xs, c.InXs...)
	c.Vs = append(c.Vs, c.InVs...)
	c.InXs, c.InVs = nil, nil
	c.sendCoords()
}

func (c *Cell) finish() {
	s := summarize(c.Vs)
	c.Contribute([]float64{float64(s.Particles), s.KE, s.Px, s.Py, s.Pz}, core.SumReducer, c.Done)
}

// ReportSummary re-contributes the summary (used by drivers for mid-run
// diagnostics).
func (c *Cell) ReportSummary() {
	c.finish()
}

// Init stores the configuration and the cell-array proxy; the compute
// derives its cell pair from its own 6D index.
func (k *Compute) Init(p Params, cells core.Proxy) {
	k.P = p
	k.Cells = cells
}

func (k *Compute) isSelf() bool {
	i := k.ThisIndex
	return i[0] == i[3] && i[1] == i[4] && i[2] == i[5]
}

// RecvCoords receives one cell's coordinates; when both halves of the pair
// (or the single half for a self pair) have arrived, it computes LJ forces
// and returns them to the owning cells.
func (k *Compute) RecvCoords(step, which int, xs []float64) {
	if which == 0 {
		k.XA = xs
	} else {
		k.XB = xs
	}
	k.Got++
	need := 2
	if k.isSelf() {
		need = 1
	}
	if k.Got < need {
		return
	}
	k.Got = 0
	bx, by, bz := k.P.Box()
	i := k.ThisIndex
	cellA := []int{i[0], i[1], i[2]}
	cellB := []int{i[3], i[4], i[5]}
	cells := k.Cells
	if k.isSelf() {
		fa := make([]float64, len(k.XA))
		ljPairForces(k.XA, k.XA, fa, fa, true, k.P.CellSize, bx, by, bz)
		cells.At(cellA...).Call("RecvForces", step, fa)
	} else {
		fa := make([]float64, len(k.XA))
		fb := make([]float64, len(k.XB))
		ljPairForces(k.XA, k.XB, fa, fb, false, k.P.CellSize, bx, by, bz)
		cells.At(cellA...).Call("RecvForces", step, fa)
		cells.At(cellB...).Call("RecvForces", step, fb)
	}
	k.XA, k.XB = nil, nil
	k.Step++
}

// Result summarizes one LeanMD run.
type Result struct {
	Impl          string
	PEs           int
	Cells         int
	Computes      int
	Summary       Summary
	WallSeconds   float64
	TimePerStepMS float64
}

// RunCharm runs the charm implementation under the given runtime config.
func RunCharm(p Params, ccfg core.Config) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	rt := core.NewRuntime(ccfg)
	Register(rt)
	var res Result
	res.Impl = "charmgo"
	res.PEs = rt.NumPEs()
	res.Cells = p.NumCells()
	rt.Start(func(self *core.Chare) {
		defer self.Exit()
		t0 := time.Now()
		cells := self.NewArray(&Cell{}, []int{p.CX, p.CY, p.CZ}, p)
		computes := self.NewSparseArray(&Compute{}, 6, p)
		pairs := AllPairs(p)
		res.Computes = len(pairs)
		for _, pr := range pairs {
			computes.Insert(pr, p, cells)
		}
		computes.DoneInserting()
		done := self.CreateFuture()
		cells.Call("Start", computes, done)
		v := done.Get().([]float64)
		res.WallSeconds = time.Since(t0).Seconds()
		if p.Steps > 0 {
			res.TimePerStepMS = res.WallSeconds / float64(p.Steps) * 1000
		}
		res.Summary = Summary{
			Particles: int(v[0] + 0.5),
			KE:        v[1], Px: v[2], Py: v[3], Pz: v[4],
		}
	})
	return res, nil
}
