package stencil

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"charmgo/internal/core"
	"charmgo/internal/lb"
	"charmgo/internal/transport"
)

func almostEqual(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-8*math.Max(scale, 1)
}

func TestSequentialDeterministic(t *testing.T) {
	p := Params{GridX: 12, GridY: 12, GridZ: 12, BX: 1, BY: 1, BZ: 1, Iters: 4}
	a, err := RunSequential(p)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := RunSequential(p)
	if a != b {
		t.Errorf("sequential run not deterministic: %v vs %v", a, b)
	}
	if a == 0 {
		t.Errorf("checksum is zero — initial condition broken?")
	}
}

func TestCharmMatchesSequential(t *testing.T) {
	p := Params{GridX: 12, GridY: 8, GridZ: 8, BX: 3, BY: 2, BZ: 2, Iters: 5}
	want, err := RunSequential(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCharm(p, core.Config{PEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got.Checksum, want) {
		t.Errorf("charm checksum %v, sequential %v", got.Checksum, want)
	}
}

func TestMPIMatchesSequential(t *testing.T) {
	p := Params{GridX: 12, GridY: 8, GridZ: 8, BX: 3, BY: 2, BZ: 2, Iters: 5}
	want, err := RunSequential(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunMPI(p)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got.Checksum, want) {
		t.Errorf("mpi checksum %v, sequential %v", got.Checksum, want)
	}
}

func TestCharmDynamicDispatchMatches(t *testing.T) {
	p := Params{GridX: 8, GridY: 8, GridZ: 8, BX: 2, BY: 2, BZ: 2, Iters: 3}
	want, _ := RunSequential(p)
	got, err := RunCharm(p, core.Config{PEs: 2, Dispatch: core.DynamicDispatch})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got.Checksum, want) {
		t.Errorf("dynamic-dispatch checksum %v, want %v", got.Checksum, want)
	}
}

func TestCharmForceSerializeMatches(t *testing.T) {
	p := Params{GridX: 8, GridY: 8, GridZ: 8, BX: 2, BY: 2, BZ: 2, Iters: 3}
	want, _ := RunSequential(p)
	got, err := RunCharm(p, core.Config{PEs: 2, ForceSerialize: true})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got.Checksum, want) {
		t.Errorf("force-serialize checksum %v, want %v", got.Checksum, want)
	}
}

func TestCharmWithLoadBalancing(t *testing.T) {
	// Imbalanced run with GreedyLB at every 4th iteration: must still be
	// numerically correct, and the final-window per-PE work should be more
	// balanced than the no-LB run.
	p := Params{GridX: 8, GridY: 8, GridZ: 8, BX: 2, BY: 2, BZ: 4,
		Iters: 12, LBPeriod: 4, Imbalance: true}
	want, _ := RunSequential(p)
	got, err := RunCharm(p, core.Config{PEs: 4, LB: lb.Greedy{}})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got.Checksum, want) {
		t.Errorf("LB run checksum %v, want %v", got.Checksum, want)
	}
	pNoLB := p
	pNoLB.LBPeriod = 0
	noLB, err := RunCharm(pNoLB, core.Config{PEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(noLB.Checksum, want) {
		t.Errorf("no-LB run checksum %v, want %v", noLB.Checksum, want)
	}
	t.Logf("max/avg PE work: no-LB %.2f, LB %.2f", noLB.MaxOverAvg, got.MaxOverAvg)
	if got.MaxOverAvg > noLB.MaxOverAvg+0.05 {
		t.Errorf("LB did not improve balance: %.2f (LB) vs %.2f (no LB)", got.MaxOverAvg, noLB.MaxOverAvg)
	}
}

func TestMPIImbalancedCorrectness(t *testing.T) {
	p := Params{GridX: 8, GridY: 8, GridZ: 8, BX: 2, BY: 2, BZ: 2, Iters: 4, Imbalance: true}
	want, _ := RunSequential(p)
	got, err := RunMPI(p)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got.Checksum, want) {
		t.Errorf("imbalanced mpi checksum %v, want %v", got.Checksum, want)
	}
	if got.MaxOverAvg < 1.3 {
		t.Errorf("synthetic imbalance too mild: max/avg = %.2f", got.MaxOverAvg)
	}
}

func TestValidateRejectsBadDecomposition(t *testing.T) {
	p := Params{GridX: 10, GridY: 10, GridZ: 10, BX: 3, BY: 1, BZ: 1, Iters: 1}
	if _, _, _, err := p.Validate(); err == nil {
		t.Error("expected divisibility error")
	}
	p = Params{GridX: 10, GridY: 10, GridZ: 10, BX: 0, BY: 1, BZ: 1}
	if _, _, _, err := p.Validate(); err == nil {
		t.Error("expected invalid block count error")
	}
}

func TestAlphaProfile(t *testing.T) {
	// paper: edge 40% of blocks have fixed alpha=10; interior higher
	const n = 100
	for i := 0; i < n; i++ {
		a := Alpha(i, n, 0)
		if i < 20 || i > 80 {
			if a != 10 {
				t.Errorf("edge block %d alpha = %v, want 10", i, a)
			}
		} else if a < 10 {
			t.Errorf("interior block %d alpha = %v < 10", i, a)
		}
	}
	if Alpha(50, n, 3) == Alpha(50, n, 8) {
		t.Error("alpha should vary with iteration")
	}
}

// Property: pack/unpack a face round-trips for any block shape.
func TestPackUnpackRoundtrip(t *testing.T) {
	f := func(sx, sy, sz uint8, d uint8) bool {
		x, y, z := int(sx)%5+1, int(sy)%5+1, int(sz)%5+1
		dir := int(d) % numDirs
		src := newBlockData(x, y, z)
		src.fill(0, 0, 0)
		face := src.packFace(dir)
		dst := newBlockData(x, y, z)
		dst.unpackGhost(opposite(dir), face)
		// the unpacked ghost layer of dst must equal the packed face of src
		got := ghostLayer(dst, opposite(dir))
		if len(got) != len(face) {
			return false
		}
		for i := range face {
			if face[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// An unpacked face is the buffer of the next face packed toward the same
// neighbour, once.
func TestPackFaceReusesUnpackedFace(t *testing.T) {
	bd := newBlockData(2, 3, 4)
	bd.fill(0, 0, 0)
	for d := 0; d < numDirs; d++ {
		want := append([]float64(nil), bd.packFace(d)...)
		recv := make([]float64, len(want))
		bd.unpackGhost(d, recv)
		out := bd.packFace(d)
		if &out[0] != &recv[0] {
			t.Errorf("dir %d: packFace did not take the face unpacked from that side", d)
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("dir %d: recycled face = %v, want %v", d, out, want)
			}
		}
		if again := bd.packFace(d); &again[0] == &recv[0] {
			t.Errorf("dir %d: one buffer handed out twice", d)
		}
	}
}

// runCharmOnMemNodes runs the block array across single-PE runtimes joined
// by the in-memory transport: every face crosses the wire codec.
func runCharmOnMemNodes(p Params, nodes int) Result {
	nw := transport.NewMemNetwork(nodes)
	var res Result
	var wg sync.WaitGroup
	for i := 0; i < nodes; i++ {
		rt := core.NewRuntime(core.Config{PEs: 1, Transport: nw.Endpoint(i)})
		Register(rt)
		entry := Entry(p, &res)
		if i > 0 {
			entry = nil
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.Start(entry)
		}()
	}
	wg.Wait()
	for i := 0; i < nodes; i++ {
		nw.Endpoint(i).Close()
	}
	return res
}

// The 8x8x4 decomposition (the benchmark's stencil_fine, on a grid whose
// three face sizes differ) stays correct on every way a recycled face can
// reach a block: by reference in-node, after a migration has dropped the
// block's spares (RotateLB moves every block at every LB point), as a copy
// decoded under ForceSerialize, and off the wire between two nodes.
func TestFaceReuseMatchesSequential(t *testing.T) {
	p := Params{GridX: 16, GridY: 24, GridZ: 16, BX: 8, BY: 8, BZ: 4, Iters: 12}
	want, err := RunSequential(p)
	if err != nil {
		t.Fatal(err)
	}
	migrating := p
	migrating.LBPeriod = 4
	runs := map[string]func() (Result, error){
		"by reference": func() (Result, error) { return RunCharm(p, core.Config{PEs: 2}) },
		"migrating":    func() (Result, error) { return RunCharm(migrating, core.Config{PEs: 2, LB: lb.Rotate{}}) },
		"serialized":   func() (Result, error) { return RunCharm(p, core.Config{PEs: 2, ForceSerialize: true}) },
		"two nodes":    func() (Result, error) { return runCharmOnMemNodes(p, 2), nil },
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			got, err := run()
			if err != nil {
				t.Fatal(err)
			}
			if !almostEqual(got.Checksum, want) {
				t.Errorf("checksum %v, sequential %v", got.Checksum, want)
			}
		})
	}
}

// ghostLayer extracts the ghost cells on side d (mirror of unpackGhost).
func ghostLayer(bd *Grid, d int) []float64 {
	var out []float64
	switch d {
	case dirXLo, dirXHi:
		x := 0
		if d == dirXHi {
			x = bd.SX + 1
		}
		for y := 1; y <= bd.SY; y++ {
			for z := 1; z <= bd.SZ; z++ {
				out = append(out, bd.A[bd.at(x, y, z)])
			}
		}
	case dirYLo, dirYHi:
		y := 0
		if d == dirYHi {
			y = bd.SY + 1
		}
		for x := 1; x <= bd.SX; x++ {
			for z := 1; z <= bd.SZ; z++ {
				out = append(out, bd.A[bd.at(x, y, z)])
			}
		}
	default:
		z := 0
		if d == dirZHi {
			z = bd.SZ + 1
		}
		for x := 1; x <= bd.SX; x++ {
			for y := 1; y <= bd.SY; y++ {
				out = append(out, bd.A[bd.at(x, y, z)])
			}
		}
	}
	return out
}

// Property: charm and sequential agree for random small decompositions.
func TestCharmSequentialProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(bx, by, bz, it uint8) bool {
		p := Params{
			GridX: 8, GridY: 8, GridZ: 8,
			BX: 1 << (bx % 3), BY: 1 << (by % 3), BZ: 1 << (bz % 3),
			Iters: int(it)%4 + 1,
		}
		want, err := RunSequential(p)
		if err != nil {
			return false
		}
		got, err := RunCharm(p, core.Config{PEs: 2})
		if err != nil {
			return false
		}
		return almostEqual(got.Checksum, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestChannelsImplMatchesSequential(t *testing.T) {
	p := Params{GridX: 12, GridY: 8, GridZ: 8, BX: 3, BY: 2, BZ: 2, Iters: 5}
	want, err := RunSequential(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCharmChannels(p, core.Config{PEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got.Checksum, want) {
		t.Errorf("channels checksum %v, sequential %v", got.Checksum, want)
	}
}

func TestChannelsImplForceSerialize(t *testing.T) {
	p := Params{GridX: 8, GridY: 8, GridZ: 8, BX: 2, BY: 2, BZ: 2, Iters: 4}
	want, _ := RunSequential(p)
	got, err := RunCharmChannels(p, core.Config{PEs: 2, ForceSerialize: true})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got.Checksum, want) {
		t.Errorf("channels+serialize checksum %v, want %v", got.Checksum, want)
	}
}
