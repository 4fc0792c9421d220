package expr

import (
	"testing"
	"testing/quick"
)

type chare struct {
	Iter     int
	MsgCount int
	Ready    bool
	Name     string
	Vals     []int
	Rate     float64
	Tags     map[string]int
}

// MustCompile is Compile but panics on error; for literal conditions.
func MustCompile(src string) *Expr {
	e, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return e
}

// Eval runs the interpreter and returns the expression's value.
func (e *Expr) Eval(env Env) (any, error) {
	return e.root.eval(env)
}

func env(c *chare, extra map[string]any) Env {
	m := MapEnv{"self": c}
	for k, v := range extra {
		m[k] = v
	}
	return m
}

func evalB(t *testing.T, src string, e Env) bool {
	t.Helper()
	ex, err := Compile(src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	got, err := ex.EvalBool(e)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return got
}

func TestFieldAccessSnakeCase(t *testing.T) {
	c := &chare{Iter: 3, MsgCount: 6, Ready: true, Name: "w"}
	cases := []struct {
		src  string
		want bool
	}{
		{"self.iter == 3", true},
		{"self.Iter == 3", true},
		{"self.msg_count == 6", true},
		{"self.msg_count == self.iter * 2", true},
		{"self.ready", true},
		{"not self.ready", false},
		{"self.name == 'w'", true},
		{"self.name == \"x\"", false},
	}
	for _, tc := range cases {
		if got := evalB(t, tc.src, env(c, nil)); got != tc.want {
			t.Errorf("%q = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestArgsAndArithmetic(t *testing.T) {
	c := &chare{Iter: 10}
	e := env(c, map[string]any{"x": 4, "y": 6, "arg0": 4})
	cases := []struct {
		src  string
		want bool
	}{
		{"x + y == self.iter", true},
		{"x * y == 24", true},
		{"y - x == 2", true},
		{"y / x == 1.5", true},
		{"y // x == 1", true},
		{"y % x == 2", true},
		{"-x == -4", true},
		{"arg0 == x", true},
		{"x < y", true},
		{"x < y <= 6", true}, // chained comparison
		{"1 < x < 3", false}, // chained, fails second link
		{"x == 4 and y == 6", true},
		{"x == 5 or y == 6", true},
		{"not (x == 5) and not (y == 5)", true},
	}
	for _, tc := range cases {
		if got := evalB(t, tc.src, e); got != tc.want {
			t.Errorf("%q = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestLenAndIndexing(t *testing.T) {
	c := &chare{Vals: []int{10, 20, 30}, Tags: map[string]int{"a": 1}}
	cases := []struct {
		src  string
		want bool
	}{
		{"len(self.vals) == 3", true},
		{"self.vals[0] == 10", true},
		{"self.vals[-1] == 30", true},
		{"self.vals[1] + self.vals[2] == 50", true},
		{"self.tags['a'] == 1", true},
		{"abs(0 - 5) == 5", true},
	}
	for _, tc := range cases {
		if got := evalB(t, tc.src, env(c, nil)); got != tc.want {
			t.Errorf("%q = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestFloatsAndLiterals(t *testing.T) {
	c := &chare{Rate: 2.5}
	cases := []struct {
		src  string
		want bool
	}{
		{"self.rate == 2.5", true},
		{"self.rate * 2 == 5", true},
		{"self.rate > 2", true},
		{"True", true},
		{"False", false},
		{"None == None", true},
		{"1.5e1 == 15", true},
	}
	for _, tc := range cases {
		if got := evalB(t, tc.src, env(c, nil)); got != tc.want {
			t.Errorf("%q = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestTruthiness(t *testing.T) {
	cases := []struct {
		v    any
		want bool
	}{
		{nil, false}, {true, true}, {false, false},
		{0, false}, {1, true}, {0.0, false}, {2.5, true},
		{"", false}, {"x", true},
		{[]int{}, false}, {[]int{1}, true},
	}
	for _, tc := range cases {
		if got := Truthy(tc.v); got != tc.want {
			t.Errorf("Truthy(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"", "==", "x +", "(x", "x ~ y", "'unterminated", "x.[", "len(", "x ]",
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", src)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	c := &chare{}
	cases := []string{
		"undefined_name == 1",
		"self.no_such_field == 1",
		"self.iter / 0 == 1",
		"self.iter % 0 == 1",
		"len(self.iter) == 1",
	}
	for _, src := range cases {
		ex, err := Compile(src)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		if _, err := ex.EvalBool(env(c, nil)); err == nil {
			t.Errorf("eval %q succeeded, want error", src)
		}
	}
}

func TestPythonModuloSemantics(t *testing.T) {
	e := MapEnv{}
	cases := []struct {
		src  string
		want int64
	}{
		{"-7 % 3", 2},
		{"7 % -3", -2},
		{"-7 // 3", -3},
	}
	for _, tc := range cases {
		ex := MustCompile(tc.src)
		got, err := ex.Eval(e)
		if err != nil {
			t.Fatalf("%q: %v", tc.src, err)
		}
		if got != tc.want {
			t.Errorf("%q = %v, want %d", tc.src, got, tc.want)
		}
	}
}

// Property: integer comparison expressions agree with Go for random inputs.
func TestComparisonProperty(t *testing.T) {
	ex := MustCompile("a < b")
	le := MustCompile("a <= b")
	eq := MustCompile("a == b")
	f := func(a, b int32) bool {
		e := MapEnv{"a": int(a), "b": int(b)}
		lt, err1 := ex.EvalBool(e)
		leq, err2 := le.EvalBool(e)
		eqq, err3 := eq.EvalBool(e)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return lt == (a < b) && leq == (a <= b) && eqq == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: arithmetic on int64 matches Go semantics (via Python floor-div
// adjustments where applicable).
func TestArithmeticProperty(t *testing.T) {
	sum := MustCompile("a + b")
	prod := MustCompile("a * b")
	f := func(a, b int16) bool {
		e := MapEnv{"a": int(a), "b": int(b)}
		s, err := sum.Eval(e)
		if err != nil || s != int64(a)+int64(b) {
			return false
		}
		p, err := prod.Eval(e)
		return err == nil && p == int64(a)*int64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConcurrentEval(t *testing.T) {
	// compiled expressions must be safe for concurrent evaluation
	ex := MustCompile("self.iter == iter")
	c := &chare{Iter: 5}
	done := make(chan bool, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			ok := true
			for i := 0; i < 200; i++ {
				got, err := ex.EvalBool(env(c, map[string]any{"iter": g % 10}))
				if err != nil || got != (g%10 == 5) {
					ok = false
				}
			}
			done <- ok
		}(g)
	}
	for g := 0; g < 8; g++ {
		if !<-done {
			t.Fatal("concurrent evaluation failed")
		}
	}
}

func TestInOperator(t *testing.T) {
	c := &chare{Vals: []int{10, 20, 30}, Tags: map[string]int{"a": 1}, Name: "worker-3"}
	cases := []struct {
		src  string
		want bool
	}{
		{"20 in self.vals", true},
		{"25 in self.vals", false},
		{"25 not in self.vals", true},
		{"'a' in self.tags", true},
		{"'b' in self.tags", false},
		{"'work' in self.name", true},
		{"'boss' not in self.name", true},
		{"10 in self.vals and 'a' in self.tags", true},
	}
	for _, tc := range cases {
		if got := evalB(t, tc.src, env(c, nil)); got != tc.want {
			t.Errorf("%q = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestInOperatorErrors(t *testing.T) {
	c := &chare{Iter: 5}
	for _, src := range []string{"1 in self.iter", "1 in 'abc'"} {
		ex, err := Compile(src)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		if _, err := ex.EvalBool(env(c, nil)); err == nil {
			t.Errorf("eval %q succeeded, want error", src)
		}
	}
}

func TestNotInVsNotPrecedence(t *testing.T) {
	// "not x in y" parses as not (x in y), like Python
	e := MapEnv{"x": 5, "y": []int{1, 2, 3}}
	ex := MustCompile("not x in y")
	got, err := ex.EvalBool(e)
	if err != nil || !got {
		t.Errorf("'not x in y' = %v (err %v), want true", got, err)
	}
}

func TestFloatArithmeticBranches(t *testing.T) {
	e := MapEnv{"a": 7.5, "b": 2.0, "n": 3}
	cases := []struct {
		src  string
		want any
	}{
		{"a + b", 9.5},
		{"a - b", 5.5},
		{"a * b", 15.0},
		{"a / b", 3.75},
		{"a // b", 3.0},
		{"a % b", 1.5},
		{"-a", -7.5},
		{"a + n", 10.5},
		{"n * b", 6.0},
		{"-7.5 // 2.0", -4.0},
		{"-7.5 % 2.0", 0.5},
	}
	for _, tc := range cases {
		ex := MustCompile(tc.src)
		got, err := ex.Eval(e)
		if err != nil {
			t.Fatalf("%q: %v", tc.src, err)
		}
		if got != tc.want {
			t.Errorf("%q = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestStringOpsAndCompares(t *testing.T) {
	e := MapEnv{"s": "abc", "t": "abd", "n": 1}
	cases := []struct {
		src  string
		want bool
	}{
		{"s < t", true},
		{"s <= s", true},
		{"s == 'abc'", true},
		{"s != t", true},
		{"s + 'x' == 'abcx'", true},
		{"s == n", false},
		{"s != n", true},
		{"None == s", false},
		{"s != None", true},
	}
	for _, tc := range cases {
		if got := evalB(t, tc.src, e); got != tc.want {
			t.Errorf("%q = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestUnsignedAndSmallIntPromotion(t *testing.T) {
	e := MapEnv{
		"u8": uint8(200), "u64": uint64(5), "i8": int8(-3),
		"f32": float32(1.5), "bt": true,
	}
	cases := []struct {
		src  string
		want bool
	}{
		{"u8 == 200", true},
		{"u64 + 1 == 6", true},
		{"i8 < 0", true},
		{"f32 * 2 == 3", true},
		{"bt + 1 == 2", true}, // Python: True == 1
	}
	for _, tc := range cases {
		if got := evalB(t, tc.src, e); got != tc.want {
			t.Errorf("%q = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestDeepEqualFallback(t *testing.T) {
	e := MapEnv{"a": []int{1, 2}, "b": []int{1, 2}, "c": []int{3}}
	if got := evalB(t, "a == b", e); !got {
		t.Error("slice deep-equality failed")
	}
	if got := evalB(t, "a != c", e); !got {
		t.Error("slice deep-inequality failed")
	}
}
