package wave2d

import (
	"math"
	"testing"

	"charmgo/internal/core"
)

func TestCharmMatchesSequential(t *testing.T) {
	p := Params{Grid: 32, BX: 2, BY: 4, Steps: 25, C2: 0.25, PulseAmp: 5}
	want, err := RunSequential(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCharm(p, core.Config{PEs: 4}, true)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Energy-want.Energy) > 1e-9*math.Max(want.Energy, 1) {
		t.Errorf("energy: charm %v, sequential %v", got.Energy, want.Energy)
	}
	if len(got.Field) != len(want.Field) {
		t.Fatalf("field sizes differ: %d vs %d", len(got.Field), len(want.Field))
	}
	for i := range want.Field {
		if math.Abs(got.Field[i]-want.Field[i]) > 1e-9 {
			t.Fatalf("field[%d]: charm %v, sequential %v", i, got.Field[i], want.Field[i])
		}
	}
}

func TestWavePropagates(t *testing.T) {
	p := DefaultParams()
	p.Steps = 1
	r1, err := RunSequential(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Steps = 30
	r30, _ := RunSequential(p)
	// the pulse must have spread: the center value decreases
	c := p.Grid/2*p.Grid + p.Grid/2
	if math.Abs(r30.Field[c]) >= math.Abs(r1.Field[c]) {
		t.Errorf("wave did not propagate: center %v -> %v", r1.Field[c], r30.Field[c])
	}
	if r30.Energy <= 0 {
		t.Errorf("energy vanished: %v", r30.Energy)
	}
}

func TestStabilityBound(t *testing.T) {
	p := DefaultParams()
	p.C2 = 0.9
	if _, _, err := p.Validate(); err == nil {
		t.Error("unstable C2 accepted")
	}
	p.C2 = 0.25
	p.Grid = 30
	p.BX = 4 // 30 % 4 != 0
	if _, _, err := p.Validate(); err == nil {
		t.Error("non-divisible decomposition accepted")
	}
}

func TestEnergyBounded(t *testing.T) {
	// leapfrog with stable C2: the field stays bounded over a long run
	p := Params{Grid: 24, BX: 1, BY: 1, Steps: 200, C2: 0.25, PulseAmp: 3}
	r, err := RunSequential(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Steps = 1
	r1, _ := RunSequential(p)
	if r.Energy > 100*r1.Energy {
		t.Errorf("energy blew up: %v -> %v", r1.Energy, r.Energy)
	}
}

func TestDynamicDispatchAgrees(t *testing.T) {
	p := Params{Grid: 16, BX: 2, BY: 2, Steps: 10, C2: 0.2, PulseAmp: 2}
	want, _ := RunSequential(p)
	got, err := RunCharm(p, core.Config{PEs: 2, Dispatch: core.DynamicDispatch}, false)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Energy-want.Energy) > 1e-9 {
		t.Errorf("dynamic dispatch energy %v, want %v", got.Energy, want.Energy)
	}
}

// DefaultParams returns a stable configuration.
func DefaultParams() Params {
	return Params{Grid: 64, BX: 2, BY: 2, Steps: 40, C2: 0.25, PulseAmp: 10}
}

// RunSequential is the single-array reference.
func RunSequential(p Params) (Result, error) {
	if _, _, err := p.Validate(); err != nil {
		return Result{}, err
	}
	prev := newField(p.Grid, p.Grid)
	cur := newField(p.Grid, p.Grid)
	next := newField(p.Grid, p.Grid)
	for x := 1; x <= p.Grid; x++ {
		for y := 1; y <= p.Grid; y++ {
			v := pulse(p, x-1, y-1)
			cur.V[cur.at(x, y)] = v
			prev.V[prev.at(x, y)] = v
		}
	}
	for s := 0; s < p.Steps; s++ {
		leapfrog(prev, cur, next, p.C2)
		prev, cur, next = cur, next, prev
	}
	field := make([]float64, 0, p.Grid*p.Grid)
	for x := 1; x <= p.Grid; x++ {
		for y := 1; y <= p.Grid; y++ {
			field = append(field, cur.V[cur.at(x, y)])
		}
	}
	return Result{Energy: cur.energy(), Field: field}, nil
}
