package expr

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// base stands in for core.Chare: an embedded struct with an unexported
// field, which is what made reflect's by-name lookup of "iter" on a chare
// search breadth-first.
type base struct {
	ThisIndex []int
	ec        *int
}

type step int // a named numeric type: not a number to the interpreter

// guarded has a field for every shape of condition in the repository and
// for every kind Bind handles or declines.
type guarded struct {
	base
	*Ext
	Iter      int
	Step      int64
	N         int32
	Flag      uint8
	MsgCount  int
	Rate      float64
	Ready     bool
	Name      string
	Vals      []int
	Neighbors []int
	Tags      map[string]int
	Phase     step
	Any       any
	hidden    int
}

// Ext is embedded by pointer: its fields are promoted, and unreachable
// while the pointer is nil.
type Ext struct{ Depth int }

var guardedType = reflect.TypeOf(guarded{})

func typesOf(vals ...any) []reflect.Type {
	out := make([]reflect.Type, len(vals))
	for i, v := range vals {
		out[i] = reflect.TypeOf(v)
	}
	return out
}

var anyType = reflect.TypeOf((*any)(nil)).Elem()

// interpreted is the reference: the public interpreter over an Env that
// resolves names the way a Guard's caller does.
func interpreted(e *Expr, self any, names []string, args []any) (bool, error) {
	return e.EvalBool(guardEnv{self: self, args: args, names: names})
}

func agree(t *testing.T, src string, g Guard, e *Expr, self any, names []string, args []any) {
	t.Helper()
	got, gotErr := g(self, args)
	want, wantErr := interpreted(e, self, names, args)
	if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Errorf("%q self=%+v args=%#v: bound = %v, %v; interpreted = %v, %v", src, self, args, got, gotErr, want, wantErr)
	}
}

// TestBindAgreesOnRepoConditions binds every When and Wait condition the
// repository declares (stencil, wave2d, leanmd, simcluster, the examples,
// tests and docs) and checks the Guard against the interpreter for
// receivers on both sides of the condition and for every kind of argument a
// caller can pass, including a dynamic-mode caller's float64(5) where the
// method takes an int.
func TestBindAgreesOnRepoConditions(t *testing.T) {
	conds := []struct {
		src   string
		names []string
		types []reflect.Type
		bound bool // typed statically, so evaluated without the interpreter
	}{
		{"self.iter == iter", []string{"iter", "dir", "face"}, typesOf(0, 0, []float64(nil)), true}, // stencil, wave2d, core tests
		{"self.step == step", []string{"step", "forces"}, typesOf(0, []float64(nil)), true},         // leanmd
		{"self.n >= 0", nil, nil, true},                                            // simcluster
		{"self.flag != 0", nil, nil, true},                                         // an int field against a literal
		{"1 == 2", nil, nil, true},                                                 // Wait: park until Exit
		{"True", nil, nil, true},                                                   // core edge test
		{"len(self.vals) == 3", nil, nil, false},                                   // Wait in core tests: a call
		{"self.msg_count == len(self.neighbors)", nil, nil, false},                 // README, TUTORIAL
		{"self.iter == iter and self.n < 100", []string{"iter"}, typesOf(0), true}, // bench_test
		{"self.iter == arg0", nil, typesOf(0), true},
		{"self.iter == iter", []string{"iter"}, []reflect.Type{anyType}, true},
	}
	selves := []*guarded{
		{Iter: 5, Step: 5, N: 7, Flag: 1, MsgCount: 2, Vals: []int{1, 2, 3}, Neighbors: []int{4, 5}},
		{Iter: 6, Step: -1, N: -1, Flag: 0, MsgCount: 3, Vals: nil, Neighbors: []int{4, 5}},
	}
	firstArgs := []any{5, int64(5), int32(6), uint8(5), float64(5), 5.5, float32(5), true, false, "5", "", nil,
		step(5), []int{5}, math.NaN(), uint64(math.MaxUint64), math.MaxInt64}
	for _, c := range conds {
		e := MustCompile(c.src)
		g, err := e.Bind(guardedType, c.names, c.types)
		if err != nil {
			t.Errorf("Bind(%q): %v", c.src, err)
			continue
		}
		b := &binder{self: guardedType, names: c.names, types: c.types}
		if got := b.compile(e.root) != nil; got != c.bound {
			t.Errorf("%q: typed statically = %v, want %v", c.src, got, c.bound)
		}
		for _, self := range selves {
			for _, a := range firstArgs {
				args := make([]any, len(c.types))
				if len(args) > 0 {
					args[0] = a
				}
				agree(t, c.src, g, e, self, c.names, args)
			}
			agree(t, c.src, g, e, self, c.names, nil) // a caller that passed too few arguments
		}
	}
}

// TestBindSemantics walks the operators of the bound form with values
// chosen to sit on the interpreter's edges: integer against float division,
// Python modulo, None, strings against numbers, chained comparisons that
// stop early, and/or returning operands.
func TestBindSemantics(t *testing.T) {
	names := []string{"x", "y", "s"}
	types := []reflect.Type{anyType, anyType, anyType}
	srcs := []string{
		"x + y == self.iter", "x - y < 0", "x * y >= 24", "y / x == 1.5", "y // x == 1", "y % x == 2",
		"-x == -4", "-self.rate < x", "x / 0 == 1", "x % 0 == 1", "x // 0.0 == 1", "-s == 1",
		"x < y <= 6", "1 < x < 3", "x < y < s", "0 < 1 < x / 0", "2 < 1 < x / 0",
		"x == None", "None == None", "x != None", "None < x", "s == x", "s != x", "s < x", "x < s",
		"s == 'w'", "s < 'x'", "s >= self.name", "s + s == 'ww'", "s * 2 == 4",
		"x and y", "x or y", "not x", "not s", "x and s", "(x or s) == 'w'", "(x and y) + 1 == 7",
		"self.ready", "not self.ready", "self.ready == True", "self.ready + 1 == 2", "-self.ready == -1",
		"self.rate * 2 > self.iter", "self.flag == 255", "self.name", "self.depth == 3",
		"self.phase == 5", "self.any == 5", "self.tags", "x in self.vals", "self.vals[0] == x",
		"abs(x) == 4", "self.this_index", "self.ext.depth == 3",
	}
	envs := []struct {
		self *guarded
		args []any
	}{
		{&guarded{Iter: 10, Rate: 5.5, Ready: true, Name: "w", Flag: 255, Phase: 5, Any: 5, Ext: &Ext{Depth: 3}, Vals: []int{4}}, []any{4, 6, "w"}},
		{&guarded{Iter: -3, Rate: math.Inf(1), Name: "", Vals: []int{1}}, []any{-4.0, int64(6), ""}},
		{&guarded{Rate: math.NaN()}, []any{nil, true, "x"}},
		{&guarded{Iter: 1}, []any{0, 0.0, nil}},
		{&guarded{Iter: 1}, []any{math.MinInt64, -1, step(3)}},
	}
	for _, src := range srcs {
		e := MustCompile(src)
		g, err := e.Bind(guardedType, names, types)
		if err != nil {
			t.Errorf("Bind(%q): %v", src, err)
			continue
		}
		for _, env := range envs {
			agree(t, src, g, e, env.self, names, env.args)
		}
	}
}

func TestBindRejectsUnresolvableNames(t *testing.T) {
	cases := []struct {
		src   string
		names []string
		types []reflect.Type
		want  string
	}{
		{"self.itr == iter", []string{"iter"}, typesOf(0), `has no field "itr"`},
		{"self.hidden == 1", nil, nil, `field "hidden"`},
		{"self.ec == None", nil, nil, "unexported"},
		{"self.iter == itr", []string{"iter"}, typesOf(0), `name "itr" is not defined`},
		{"self.iter == arg1", []string{"iter"}, typesOf(0), `name "arg1" is not defined`},
		{"self.iter == dir", []string{"iter", "dir"}, typesOf(0), `name "dir" is not defined`}, // named, but the method has one argument
		{"len(self.valz) == n", nil, nil, `has no field "valz"`},                               // inside a part Bind leaves to the interpreter
		{"iter in self.vals or slef.iter", []string{"iter"}, typesOf(0), `name "slef"`},
	}
	for _, c := range cases {
		_, err := MustCompile(c.src).Bind(guardedType, c.names, c.types)
		if err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), c.src) {
			t.Errorf("Bind(%q) error = %v, want one naming the condition and %q", c.src, err, c.want)
		}
	}
	if _, err := MustCompile("True").Bind(reflect.TypeOf(0), nil, nil); err == nil {
		t.Error("Bind to a self that is no struct: no error")
	}
}

// A call the bound form does not cover goes to the interpreter, which gives
// the answer or the error it always gave.
func TestBoundGuardFallsBackPerCall(t *testing.T) {
	e := MustCompile("self.depth == d")
	g, err := e.Bind(reflect.TypeOf(&guarded{}), []string{"d"}, typesOf(0))
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := g(&guarded{Ext: &Ext{Depth: 2}}, []any{2}); !ok || err != nil {
		t.Errorf("promoted field through a pointer = %v, %v", ok, err)
	}
	if _, err := g(&guarded{}, []any{2}); err == nil {
		t.Error("nil embedded pointer: no error")
	}
	if _, err := g((*guarded)(nil), []any{2}); err == nil {
		t.Error("nil receiver: no error")
	}
	if _, err := g(nil, []any{2}); err == nil {
		t.Error("no receiver: no error")
	}
	type other struct{ Depth int }
	if ok, err := g(&other{Depth: 2}, []any{2}); !ok || err != nil {
		t.Errorf("receiver of another type = %v, %v; the interpreter resolves it by name", ok, err)
	}
	if ok, err := g(guarded{Ext: &Ext{Depth: 2}}, []any{2.0}); !ok || err != nil {
		t.Errorf("receiver passed by value = %v, %v", ok, err)
	}
}

func TestBoundGuardDoesNotAllocate(t *testing.T) {
	names, types := []string{"iter", "dir", "face"}, typesOf(0, 0, []float64(nil))
	self := &guarded{Iter: 5, N: 3, Rate: 2.5, Name: "w", Ready: true}
	args := []any{5, 1, []float64(nil)}
	for _, src := range []string{"self.iter == iter", "self.iter == iter and self.n < 100",
		"self.rate * 2 >= iter or not self.ready", "self.name == 'w'", "0 <= dir < self.iter - 1"} {
		g, err := MustCompile(src).Bind(guardedType, names, types)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := g(self, args)
		if !ok || err != nil {
			t.Fatalf("%q = %v, %v", src, ok, err)
		}
		if n := testing.AllocsPerRun(100, func() { ok, _ = g(self, args) }); n != 0 {
			t.Errorf("%q: %v allocations per evaluation, want 0", src, n)
		}
	}
}

// The interpreter resolves attributes through the same memo as Bind: one
// reflect lookup per (type, name), not one per evaluation.
func TestAttrResolvesOncePerTypeAndName(t *testing.T) {
	type local struct {
		base
		MsgCount int
	}
	v := &local{MsgCount: 4}
	for i := 0; i < 3; i++ {
		got, err := Attr(v, "msg_count")
		if got != 4 || err != nil {
			t.Fatalf("Attr = %v, %v", got, err)
		}
	}
	c, ok := fieldCache.Load(reflect.TypeOf(local{}))
	if !ok {
		t.Fatal("type not memoized")
	}
	if n := len(c.(*structFields).byName); n != 1 {
		t.Errorf("%d names memoized, want 1", n)
	}
	if _, err := Attr(v, "ec"); err == nil || !strings.Contains(err.Error(), "unexported") {
		t.Errorf("unexported promoted field: %v", err)
	}
	if _, err := Attr(v, "nope"); err == nil || !strings.Contains(err.Error(), `no field "nope"`) {
		t.Errorf("missing field: %v", err)
	}
}

// ---- fuzzing ----

// exprGen derives an expression and its environment from fuzz input.
type exprGen struct {
	data []byte
	pos  int
}

func (g *exprGen) next() int {
	if g.pos >= len(g.data) {
		return 0
	}
	g.pos++
	return int(g.data[g.pos-1])
}

func (g *exprGen) pick(options ...string) string { return options[g.next()%len(options)] }

func (g *exprGen) expr(depth int) string {
	if depth <= 0 || g.pos >= len(g.data) {
		return g.leaf()
	}
	switch g.next() % 10 {
	case 0:
		return g.leaf()
	case 1:
		return "(not " + g.expr(depth-1) + ")"
	case 2:
		return "-" + g.expr(depth-1)
	case 3:
		return "(" + g.expr(depth-1) + " " + g.pick("and", "or") + " " + g.expr(depth-1) + ")"
	case 4:
		return "(" + g.expr(depth-1) + " " + g.pick("+", "-", "*", "/", "//", "%") + " " + g.expr(depth-1) + ")"
	case 5: // chained comparison
		return "(" + g.expr(depth-1) + " " + g.cmp() + " " + g.expr(depth-1) + " " + g.cmp() + " " + g.expr(depth-1) + ")"
	case 6: // what Bind leaves to the interpreter
		return g.pick("len(self.vals)", "abs(a)", "self.vals[0]", "(a in self.vals)", "(b not in self.tags)", "self.ext.depth")
	}
	return "(" + g.expr(depth-1) + " " + g.cmp() + " " + g.expr(depth-1) + ")"
}

func (g *exprGen) cmp() string { return g.pick("==", "!=", "<", "<=", ">", ">=") }

func (g *exprGen) leaf() string {
	return g.pick("self.iter", "self.step", "self.n", "self.flag", "self.rate", "self.ready", "self.name",
		"self.depth", "self.phase", "self.any", "a", "b", "c", "arg1",
		"0", "1", "2", "-1", "7", "0.5", "2.0", "1e3", "'w'", "''", "True", "False", "None")
}

func (g *exprGen) value() any {
	switch k := g.next(); k % 12 {
	case 0:
		return g.next() - 128
	case 1:
		return int64(g.next()) << (g.next() % 64)
	case 2:
		return float64(g.next()-128) / 4
	case 3:
		return k%24 == 3
	case 4:
		return g.pick("", "w", "x", "ww")
	case 5:
		return nil
	case 6:
		return uint8(g.next())
	case 7:
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}[g.next()%5]
	case 8:
		return step(g.next())
	case 9:
		return []int{g.next()}
	case 10:
		return uint64(math.MaxUint64) - uint64(g.next())
	}
	return int32(g.next()) - 100
}

// FuzzBoundGuard: for a random expression over a random receiver and
// arguments, the Guard Bind returns and the interpreter give the same answer
// or the same error.
func FuzzBoundGuard(f *testing.F) {
	f.Add([]byte{7, 0, 0, 1, 10, 5, 0, 133, 0, 133})
	f.Add([]byte{3, 7, 0, 1, 10, 1, 7, 2, 0, 14, 0, 200, 2, 100})
	f.Add([]byte{5, 4, 0, 4, 10, 3, 0, 11, 1, 2, 0, 15, 7, 0, 9, 4})
	f.Add([]byte{4, 1, 6, 0, 12, 6, 3, 9, 9, 9, 9, 5, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &exprGen{data: data}
		src := g.expr(4)
		self := &guarded{Vals: []int{g.next()}, Tags: map[string]int{"w": 1}}
		fields := []any{&self.Iter, &self.Step, &self.N, &self.Flag, &self.Rate, &self.Ready, &self.Name, &self.Phase}
		for _, p := range fields {
			fv := reflect.ValueOf(p).Elem()
			if v := reflect.ValueOf(g.value()); v.IsValid() && v.Type().ConvertibleTo(fv.Type()) && v.Kind() != reflect.Slice &&
				(v.Kind() == reflect.String) == (fv.Kind() == reflect.String) {
				fv.Set(v.Convert(fv.Type()))
			}
		}
		self.Any = g.value()
		if g.next()%4 != 0 {
			self.Ext = &Ext{Depth: g.next()}
		}
		args := []any{g.value(), g.value(), g.value()}[:1+g.next()%3]
		names := []string{"a", "b", "c"}
		types := []reflect.Type{reflect.TypeOf(0), reflect.TypeOf(0.0), anyType}

		e, err := Compile(src)
		if err != nil {
			t.Fatalf("generated %q does not parse: %v", src, err)
		}
		guard, err := e.Bind(guardedType, names, types)
		if err != nil {
			t.Fatalf("Bind(%q): %v", src, err)
		}
		agree(t, src, guard, e, self, names, args)
	})
}
