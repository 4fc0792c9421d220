// Package stencil implements the paper's stencil3d benchmark (section V-A):
// a 7-point Jacobi stencil on a 3D grid decomposed into equal blocks, with
// charmgo and mini-MPI implementations sharing one compute kernel, a
// synthetic load-imbalance mode (section V-B), and a sequential reference
// for correctness checks.
package stencil

import (
	"fmt"
	"math"
)

// Params describes one stencil3d run.
type Params struct {
	// Global grid dimensions.
	GridX, GridY, GridZ int
	// Block counts per dimension; each block is a chare (or an MPI rank).
	BX, BY, BZ int
	// Iters is the number of Jacobi iterations.
	Iters int
	// LBPeriod triggers AtSync load balancing every LBPeriod iterations in
	// the charm version (0 = off). The paper uses 30.
	LBPeriod int
	// Imbalance enables the paper's synthetic load model: block i's compute
	// is extended by a factor alpha_i that varies with the block index and
	// iteration (section V-B).
	Imbalance bool
	// WorkScale adds deterministic extra compute per cell (multiplier on the
	// synthetic busy-work unit); 0 means pure stencil.
	WorkScale float64
}

// Validate checks divisibility and returns block-local dimensions.
func (p Params) Validate() (sx, sy, sz int, err error) {
	if p.BX <= 0 || p.BY <= 0 || p.BZ <= 0 {
		return 0, 0, 0, fmt.Errorf("stencil: invalid block counts %dx%dx%d", p.BX, p.BY, p.BZ)
	}
	if p.GridX%p.BX != 0 || p.GridY%p.BY != 0 || p.GridZ%p.BZ != 0 {
		return 0, 0, 0, fmt.Errorf("stencil: grid %dx%dx%d not divisible by blocks %dx%dx%d",
			p.GridX, p.GridY, p.GridZ, p.BX, p.BY, p.BZ)
	}
	return p.GridX / p.BX, p.GridY / p.BY, p.GridZ / p.BZ, nil
}

// NumBlocks returns the total block count.
func (p Params) NumBlocks() int { return p.BX * p.BY * p.BZ }

// initValue is the deterministic initial condition for global cell (x,y,z).
func initValue(x, y, z int) float64 {
	h := uint64(x)*2654435761 ^ uint64(y)*40503 ^ uint64(z)*2246822519
	h ^= h >> 13
	h *= 1099511628211
	h ^= h >> 29
	return float64(h%1000) / 1000.0
}

// dir encodes the six face-exchange directions.
const (
	dirXLo = iota
	dirXHi
	dirYLo
	dirYHi
	dirZLo
	dirZHi
	numDirs
)

// opposite returns the direction a received face came from, from the
// sender's perspective.
func opposite(d int) int { return d ^ 1 }

// block is the shared per-block compute state used by both implementations.
// Layout: (sx+2) x (sy+2) x (sz+2) with one ghost layer; index (x,y,z) ->
// ((x*(sy+2))+y)*(sz+2)+z.
type Grid struct {
	SX, SY, SZ int
	A, B       []float64

	// spare[d] is the face last unpacked from the neighbour in direction d,
	// kept as the buffer of the next face packed toward d (see unpackGhost).
	// Unexported, so a migrating block leaves its spares behind and packFace
	// allocates until the next exchange has refilled them.
	spare [numDirs][]float64
}

func newBlockData(sx, sy, sz int) *Grid {
	n := (sx + 2) * (sy + 2) * (sz + 2)
	return &Grid{SX: sx, SY: sy, SZ: sz, A: make([]float64, n), B: make([]float64, n)}
}

func (bd *Grid) at(x, y, z int) int {
	return (x*(bd.SY+2)+y)*(bd.SZ+2) + z
}

// fill initializes interior cells from the global initial condition; the
// block covers global cells [ox, ox+sx) x [oy, ..) x [oz, ..).
func (bd *Grid) fill(ox, oy, oz int) {
	for x := 1; x <= bd.SX; x++ {
		for y := 1; y <= bd.SY; y++ {
			for z := 1; z <= bd.SZ; z++ {
				bd.A[bd.at(x, y, z)] = initValue(ox+x-1, oy+y-1, oz+z-1)
			}
		}
	}
}

// compute performs one 7-point Jacobi sweep from a into b and swaps them.
// This is the "Numba-JIT-compiled kernel" of the paper — in Go it is simply
// compiled code. It returns the interior cell count (for rate reporting).
func (bd *Grid) compute() int {
	sy2, sz2 := bd.SY+2, bd.SZ+2
	a, b := bd.A, bd.B
	for x := 1; x <= bd.SX; x++ {
		for y := 1; y <= bd.SY; y++ {
			base := (x*sy2+y)*sz2 + 1
			xm := ((x-1)*sy2+y)*sz2 + 1
			xp := ((x+1)*sy2+y)*sz2 + 1
			ym := (x*sy2+y-1)*sz2 + 1
			yp := (x*sy2+y+1)*sz2 + 1
			for z := 0; z < bd.SZ; z++ {
				i := base + z
				b[i] = (a[i] + a[xm+z] + a[xp+z] + a[ym+z] + a[yp+z] + a[i-1] + a[i+1]) / 7.0
			}
		}
	}
	bd.A, bd.B = bd.B, bd.A
	return bd.SX * bd.SY * bd.SZ
}

// faceBuf returns the n-cell buffer for the face sent toward d: the spare
// from that neighbour if there is one, else a new slice.
func (bd *Grid) faceBuf(d, n int) []float64 {
	if buf := bd.spare[d]; len(buf) == n {
		bd.spare[d] = nil
		return buf
	}
	return make([]float64, n)
}

// faceAt locates the face of direction d — the interior's boundary layer on
// that side, or with ghost the ghost layer beyond it: rows of cols cells, the
// first at off, rows rs apart and a row's cells cs apart. x and y faces are
// contiguous z-rows (cs == 1), copied row by row; a z face is walked with the
// z-row stride. packFace and unpackGhost share the order, so a face unpacks
// where its mirror was packed.
func (bd *Grid) faceAt(d int, ghost bool) (off, rows, cols, rs, cs int) {
	sy2, sz2 := bd.SY+2, bd.SZ+2
	lo, hi := 1, [...]int{bd.SX, bd.SY, bd.SZ}[d/2]
	if ghost {
		lo, hi = lo-1, hi+1
	}
	k := lo
	if d&1 == 1 { // Hi directions are odd, see opposite
		k = hi
	}
	switch d {
	case dirXLo, dirXHi:
		return (k*sy2+1)*sz2 + 1, bd.SY, bd.SZ, sz2, 1
	case dirYLo, dirYHi:
		return (sy2+k)*sz2 + 1, bd.SX, bd.SZ, sy2 * sz2, 1
	default:
		return (sy2+1)*sz2 + k, bd.SX, bd.SY, sy2 * sz2, sz2
	}
}

// packFace copies the interior boundary face for direction d into a buffer
// whose ownership passes to the caller (and on to whoever it is sent to).
func (bd *Grid) packFace(d int) []float64 {
	off, rows, cols, rs, cs := bd.faceAt(d, false)
	out := bd.faceBuf(d, rows*cols)
	for r, i := 0, 0; r < rows; r, i = r+1, i+cols {
		row := bd.A[off+r*rs:]
		if cs == 1 {
			copy(out[i:i+cols], row[:cols])
			continue
		}
		for c, j := i, 0; c < i+cols; c, j = c+1, j+cs {
			out[c] = row[j]
		}
	}
	return out
}

// unpackGhost stores a face received from direction d into the ghost layer
// and takes ownership of data. A received face belongs to the receiver in all
// three implementations — an entry-method or channel argument is delivered by
// reference in-node and decoded into a fresh slice off the wire, mini-MPI
// hands over the sender's slice — and a block gets from each neighbour
// exactly the face size it sends back, so data becomes the buffer of the next
// packFace(d): Block, ChanBlock and RunMPI all exchange faces without
// allocating after the first step.
func (bd *Grid) unpackGhost(d int, data []float64) {
	bd.spare[d] = data
	off, rows, cols, rs, cs := bd.faceAt(d, true)
	for r, i := 0, 0; r < rows; r, i = r+1, i+cols {
		row := bd.A[off+r*rs:]
		if cs == 1 {
			copy(row[:cols], data[i:i+cols])
			continue
		}
		for c, j := i, 0; c < i+cols; c, j = c+1, j+cs {
			row[j] = data[c]
		}
	}
}

// checksum returns the sum over interior cells (correctness comparison).
func (bd *Grid) checksum() float64 {
	var s float64
	for x := 1; x <= bd.SX; x++ {
		for y := 1; y <= bd.SY; y++ {
			for z := 1; z <= bd.SZ; z++ {
				s += bd.A[bd.at(x, y, z)]
			}
		}
	}
	return s
}

// Alpha is the paper's synthetic load factor for block i of N at the given
// iteration (section V-B): blocks with i < 0.2N or i > 0.8N have a fixed
// factor of 10; interior blocks grow with the block index and oscillate with
// the iteration. The resulting max/average block load ratio is ~2.1-2.6.
func Alpha(i, n, iter int) float64 {
	fi := float64(i)
	fn := float64(n)
	if fi < 0.2*fn || fi > 0.8*fn {
		return 10
	}
	return 100*fi/fn + 5*float64(iter%10)
}

// SyntheticWork spins for roughly `units` abstract work units, returning a
// value to defeat dead-code elimination. One unit is a few ns of FP work.
func SyntheticWork(units float64) float64 {
	acc := 1.0
	n := int(units)
	for i := 0; i < n; i++ {
		acc += math.Sqrt(float64(i&1023) + acc)
		if acc > 1e12 {
			acc = 1
		}
	}
	return acc
}

// RunSequential runs the stencil on one big array as the ground truth and
// returns the final interior checksum.
func RunSequential(p Params) (float64, error) {
	if _, _, _, err := p.Validate(); err != nil {
		return 0, err
	}
	bd := newBlockData(p.GridX, p.GridY, p.GridZ)
	bd.fill(0, 0, 0)
	for it := 0; it < p.Iters; it++ {
		bd.compute()
	}
	return bd.checksum(), nil
}
