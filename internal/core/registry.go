package core

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"

	"charmgo/internal/expr"
	"charmgo/internal/ser"
)

// DispatchMode selects how entry methods are located and invoked. It is the
// repo's model of the paper's CharmPy-vs-Charm++ comparison (see DESIGN.md),
// and Register is the one place that reads it.
type DispatchMode uint8

const (
	// StaticDispatch is Compiled mode, the model of Charm++: Register attaches
	// the type's generated bindings (charmgo_gen.go), so calls ship a method
	// id and run through a typed switch and typed codecs.
	StaticDispatch DispatchMode = iota
	// DynamicDispatch is Interpreted mode, the model of CharmPy: Register
	// attaches no bindings, so calls ship the method name and are resolved
	// per invocation by reflection with permissive argument coercion.
	DynamicDispatch
)

// Chareable is implemented by any struct that embeds Chare.
type Chareable interface {
	chareBase() *Chare
}

// emInfo describes one entry method of a registered chare type.
type emInfo struct {
	id       int32
	name     string
	argTypes []reflect.Type
	variadic bool // reflect hands it a slice built around the arguments
	threaded bool
	when     expr.Guard // bound at Register; nil when the method is ungated
	whenSrc  string
	argNames []string // names under which args are visible to when-conditions
}

// chareType is the registration record for one chare class.
type chareType struct {
	name      string
	rtype     reflect.Type // the struct type (not pointer)
	methods   []*emInfo    // sorted by name; index == method id
	byName    map[string]*emInfo
	hasResume bool        // has a ResumeFromSync entry method
	gen       *GenBinding // generated dispatch/codec bindings; nil in Interpreted mode
	waits     sync.Map    // Wait condition string -> expr.Guard bound to rtype
}

// RegOpt configures chare type registration.
type RegOpt func(*regOpts)

type regOpts struct {
	whens    map[string]string
	threaded map[string]bool
	argNames map[string][]string
}

// When attaches a CharmPy-style when-condition to an entry method: messages
// for the method are buffered until the condition (over "self" and the
// method's arguments) evaluates true. Equivalent to @when('cond') in the
// paper (section II-E).
func When(method, condition string) RegOpt {
	return func(o *regOpts) { o.whens[method] = condition }
}

// Threaded marks entry methods as threaded: they run in their own goroutine
// and may suspend on futures and Wait conditions (paper section II-H1).
func Threaded(methods ...string) RegOpt {
	return func(o *regOpts) {
		for _, m := range methods {
			o.threaded[m] = true
		}
	}
}

// ArgNames gives names to an entry method's positional arguments so that
// when-conditions can refer to them by name (Go reflection cannot recover
// parameter names). Unnamed arguments are always available as arg0, arg1, ...
func ArgNames(method string, names ...string) RegOpt {
	return func(o *regOpts) { o.argNames[method] = names }
}

// bindCond parses a when/wait condition and binds it to the chare struct
// type and the argument list it will see (expr.Bind), so that a condition
// naming a field or argument that does not exist panics here, with what
// describing where it was declared, and not on a PE at its first evaluation.
func bindCond(cond string, self reflect.Type, argNames []string, argTypes []reflect.Type, what string) expr.Guard {
	e, err := expr.Compile(cond)
	if err != nil {
		panic(fmt.Sprintf("core: %s: %v", what, err))
	}
	g, err := e.Bind(self, argNames, argTypes)
	if err != nil {
		panic(fmt.Sprintf("core: %s: %v", what, err))
	}
	return g
}

// baseMethods is the set of method names promoted from the embedded Chare
// base (and migration hooks); they are not entry methods.
var baseMethods = func() map[string]bool {
	set := map[string]bool{
		"GobEncode": true, "GobDecode": true,
		"Migrated": true, "String": true,
	}
	t := reflect.TypeOf(&Chare{})
	for i := 0; i < t.NumMethod(); i++ {
		set[t.Method(i).Name] = true
	}
	return set
}()

// Register registers a chare type from its prototype (a pointer to a struct
// embedding Chare). It must be called before Runtime.Start, identically on
// every node of a job. It returns the type name under which the chare is
// registered.
func (rt *Runtime) Register(proto Chareable, opts ...RegOpt) string {
	o := &regOpts{
		whens:    map[string]string{},
		threaded: map[string]bool{},
		argNames: map[string][]string{},
	}
	for _, fn := range opts {
		fn(o)
	}
	pt := reflect.TypeOf(proto)
	if pt.Kind() != reflect.Ptr || pt.Elem().Kind() != reflect.Struct {
		panic(fmt.Sprintf("core: Register needs a pointer to struct, got %T", proto))
	}
	st := pt.Elem()
	name := st.Name()
	if name == "" {
		panic("core: cannot register unnamed chare type")
	}
	if rt.started.Load() {
		panic("core: Register after Start")
	}
	ct := &chareType{
		name:   name,
		rtype:  st,
		byName: map[string]*emInfo{},
	}
	var names []string
	for i := 0; i < pt.NumMethod(); i++ {
		m := pt.Method(i)
		if baseMethods[m.Name] {
			continue
		}
		names = append(names, m.Name)
	}
	sort.Strings(names)
	for i, mn := range names {
		m, _ := pt.MethodByName(mn)
		info := &emInfo{id: int32(i), name: mn, variadic: m.Type.IsVariadic()}
		nIn := m.Type.NumIn() // includes receiver
		for a := 1; a < nIn; a++ {
			info.argTypes = append(info.argTypes, m.Type.In(a))
		}
		info.threaded = o.threaded[mn]
		info.argNames = o.argNames[mn]
		if cond, ok := o.whens[mn]; ok {
			info.whenSrc = cond
			info.when = bindCond(cond, st, info.argNames, info.argTypes,
				fmt.Sprintf("when-condition for %s.%s", name, mn))
		}
		ct.methods = append(ct.methods, info)
		ct.byName[mn] = info
		if mn == "ResumeFromSync" {
			ct.hasResume = true
		}
	}
	// Compiled mode attaches the generated bindings (charmgo_gen.go) if the
	// package registered any for this type; Interpreted mode never does.
	// Either way the binding's method list must match the reflected
	// entry-method set exactly — ids are positional — so drift between the
	// source and a stale generated file is a startup panic, not silent
	// misdispatch.
	if g := genBindingFor(st.PkgPath() + "." + name); g != nil {
		if !slices.Equal(g.Methods, names) {
			panic(fmt.Sprintf("core: generated bindings for %s are stale (generated for %v, source has %v); run `make gen`",
				name, g.Methods, names))
		}
		if rt.cfg.Dispatch == StaticDispatch {
			ct.gen = g
		}
	}
	for mn := range o.whens {
		if _, ok := ct.byName[mn]; !ok {
			panic(fmt.Sprintf("core: When for unknown method %s.%s", name, mn))
		}
	}
	for mn := range o.threaded {
		if mn == "" {
			continue
		}
		if _, ok := ct.byName[mn]; !ok {
			panic(fmt.Sprintf("core: Threaded for unknown method %s.%s", name, mn))
		}
	}
	rt.mu.Lock()
	if _, dup := rt.types[name]; dup {
		rt.mu.Unlock()
		panic(fmt.Sprintf("core: chare type %q registered twice", name))
	}
	rt.types[name] = ct
	rt.mu.Unlock()
	// Register with the gob fallback so instances can migrate and ctor args
	// of this type can cross nodes.
	ser.RegisterType(reflect.New(st).Interface())
	return name
}

// ArrayMap computes the initial placement of array elements, mirroring the
// paper's ArrayMap chares (section II-G1). Implementations must be
// deterministic: every node runs them independently.
type ArrayMap interface {
	ProcNum(index []int, numPEs int) int
}

// RegisterMap registers an ArrayMap under a name so that array creation
// messages can refer to it across nodes.
func (rt *Runtime) RegisterMap(name string, m ArrayMap) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.maps[name] = m
}

// ReducerFunc combines a list of contributions into one value. It is applied
// to per-PE batches and to the batch of per-PE partials at the root, so it
// must be insensitive to such regrouping (same contract as CharmPy custom
// reducers).
type ReducerFunc func(contribs []any) any

// AddReducer registers a custom reducer (paper section II-F1). Must be
// registered identically on every node.
func (rt *Runtime) AddReducer(name string, fn ReducerFunc) Reducer {
	if builtinReducers[name] {
		panic(fmt.Sprintf("core: reducer %q is built-in", name))
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.reducers[name] = fn
	return Reducer{Name: name}
}
