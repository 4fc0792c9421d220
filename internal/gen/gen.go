// Package gen emits charmgo_gen.go binding files: per-chare typed dispatch
// and per-signature argument codecs that replace the runtime's reflect.Call
// and gob fallback on the remote-invoke hot path. It is the repo's analog of
// Charm++'s charmxi-generated stubs and of the Charm4Py evaluation's move
// from interpreted to generated method invocation (PAPERS.md, Fink 2021).
//
// For each package that defines chare types (structs embedding core.Chare),
// Generate produces one file containing:
//
//   - a dispatch function per chare: a flat switch over method ids that
//     type-asserts the receiver and arguments and calls the entry method
//     directly — no reflect.Value, no coercion;
//   - an encoder and decoder per entry method, writing the ser wire format
//     through typed appenders/readers (byte-identical with the generic
//     reflective path, so bound and unbound nodes interoperate);
//   - flat struct codecs for same-package struct parameters, registered with
//     ser so even the generic path stops gob-encoding them;
//   - an init() that registers everything with core.RegisterGenerated.
//
// Every generated construct declines (returns ok=false) when its type
// assertions fail, and the runtime falls back to the reflective path — so a
// dynamic-mode caller relying on argument coercion still works, just slower.
//
// The file also carries one "// charmgo:manifest" comment per chare type
// recording the entry-method signature set it was generated from; the
// charmvet genfresh rule recomputes that string from source and flags drift.
package gen

import (
	"bytes"
	"fmt"
	"go/format"
	"go/types"
	"sort"
	"strings"

	"charmgo/internal/analysis"
)

// GenFileName is the filename bindings are written to in each package,
// shared with the genfresh vet rule.
const GenFileName = analysis.GenFileName

// kind classifies a parameter or field type for codec purposes.
type kind int

const (
	kOther kind = iota // codec via AppendAny/Any (may still reach gob)
	kBool
	kInt
	kInt64
	kFloat64
	kString
	kBytes
	kF64s
	kF32s
	kI64s
	kI32s
	kInts
	kProxy
	kFuture
	kFlat // same-package struct with a generated flat codec
	kAny  // interface{}: passed through untyped, still zero-reflection
)

// typed reports whether the kind has a fully typed wire path (no gob).
func (k kind) typed() bool { return k != kOther }

type generator struct {
	pkg     *analysis.Package
	chares  []analysis.ChareInfo
	imports map[string]string     // import path -> local alias
	order   []string              // import paths in first-use order
	flats   map[*types.Named]bool // same-package structs with flat codecs
	flatQ   []*types.Named        // emission order
	body    bytes.Buffer
}

// Generate returns the generated bindings file for pkg, or nil if the
// package defines no chare types.
func Generate(pkg *analysis.Package) ([]byte, error) {
	chares := analysis.Chares(pkg)
	if len(chares) == 0 {
		return nil, nil
	}
	g := &generator{
		pkg:     pkg,
		chares:  chares,
		imports: map[string]string{},
		flats:   map[*types.Named]bool{},
	}
	// core is always used (RegisterGenerated in init); ser is used by every
	// codec, which exists whenever any chare has an entry method.
	g.importAlias(analysis.CorePkgPath, "core")
	for _, ci := range chares {
		if len(ci.Methods) > 0 {
			g.importAlias("charmgo/internal/ser", "ser")
			break
		}
	}
	for _, ci := range chares {
		g.emitChare(ci)
	}
	g.emitFlatHelpers()
	g.emitInit()
	return g.render()
}

// pkgKey is the registration key prefix: what reflect.Type.PkgPath() will
// report at runtime — "main" for main packages, the import path otherwise.
func (g *generator) pkgKey() string {
	if g.pkg.Types.Name() == "main" {
		return "main"
	}
	return g.pkg.Types.Path()
}

// importAlias records an import and returns the local name to qualify with.
func (g *generator) importAlias(path, base string) string {
	if a, ok := g.imports[path]; ok {
		return a
	}
	alias := base
	taken := func(name string) bool {
		for _, a := range g.imports {
			if a == name {
				return true
			}
		}
		// Don't shadow the package being generated into.
		return name == g.pkg.Types.Name()
	}
	for i := 2; taken(alias); i++ {
		alias = fmt.Sprintf("%s%d", base, i)
	}
	g.imports[path] = alias
	g.order = append(g.order, path)
	return alias
}

// qual is the types.TypeString qualifier: empty for the generated package,
// an import alias for everything else.
func (g *generator) qual(p *types.Package) string {
	if p == nil || p == g.pkg.Types {
		return ""
	}
	return g.importAlias(p.Path(), p.Name())
}

// goType renders t as Go syntax valid inside the generated file.
func (g *generator) goType(t types.Type) string {
	return types.TypeString(t, g.qual)
}

// nameable reports whether t can be written down in the generated package:
// every named type it mentions is either local or exported.
func (g *generator) nameable(t types.Type) bool {
	ok := true
	var walk func(types.Type, int)
	seen := map[types.Type]bool{}
	walk = func(t types.Type, depth int) {
		if !ok || depth > 16 || seen[t] {
			return
		}
		seen[t] = true
		switch u := t.(type) {
		case *types.Named:
			obj := u.Obj()
			if obj.Pkg() != nil && obj.Pkg() != g.pkg.Types && !obj.Exported() {
				ok = false
				return
			}
			for i := 0; i < u.TypeArgs().Len(); i++ {
				walk(u.TypeArgs().At(i), depth+1)
			}
		case *types.Pointer:
			walk(u.Elem(), depth+1)
		case *types.Slice:
			walk(u.Elem(), depth+1)
		case *types.Array:
			walk(u.Elem(), depth+1)
		case *types.Map:
			walk(u.Key(), depth+1)
			walk(u.Elem(), depth+1)
		case *types.Chan:
			walk(u.Elem(), depth+1)
		case *types.Signature:
			for i := 0; i < u.Params().Len(); i++ {
				walk(u.Params().At(i).Type(), depth+1)
			}
			for i := 0; i < u.Results().Len(); i++ {
				walk(u.Results().At(i).Type(), depth+1)
			}
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				walk(u.Field(i).Type(), depth+1)
			}
		case *types.Interface:
			for i := 0; i < u.NumMethods(); i++ {
				walk(u.Method(i).Type(), depth+1)
			}
		}
	}
	walk(t, 0)
	return ok
}

func isCoreNamed(t types.Type, name string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == analysis.CorePkgPath && obj.Name() == name
}

// classify maps a type to its codec kind. Same-package structs are probed
// (and queued) for flat codec generation.
func (g *generator) classify(t types.Type) kind {
	if isCoreNamed(t, "Proxy") {
		return kProxy
	}
	if isCoreNamed(t, "Future") {
		return kFuture
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		if _, isNamed := t.(*types.Named); isNamed {
			// Named scalars (type Mass float64) reach the generic path as
			// their named type and gob-encode; keep that behavior.
			return kOther
		}
		switch u.Kind() {
		case types.Bool:
			return kBool
		case types.Int:
			return kInt
		case types.Int64:
			return kInt64
		case types.Float64:
			return kFloat64
		case types.String:
			return kString
		}
	case *types.Slice:
		if _, isNamed := t.(*types.Named); isNamed {
			return kOther
		}
		if eb, ok := u.Elem().(*types.Basic); ok {
			if _, en := u.Elem().(*types.Named); !en {
				switch eb.Kind() {
				case types.Byte:
					return kBytes
				case types.Float64:
					return kF64s
				case types.Float32:
					return kF32s
				case types.Int64:
					return kI64s
				case types.Int32:
					return kI32s
				case types.Int:
					return kInts
				}
			}
		}
	case *types.Interface:
		if u.Empty() {
			return kAny
		}
	case *types.Struct:
		if n, ok := t.(*types.Named); ok && n.Obj().Pkg() == g.pkg.Types {
			if g.markFlat(n) {
				return kFlat
			}
		}
	}
	return kOther
}

// markFlat decides (and memoizes) whether a same-package struct gets a
// generated flat codec: every field, exported or not, must itself be flat-
// codable. Unexported fields are fine — the generated file lives in the same
// package — and unlike gob they survive the wire.
func (g *generator) markFlat(n *types.Named) bool {
	if ok, seen := g.flats[n]; seen {
		return ok
	}
	g.flats[n] = false // cycle guard; structs cannot truly contain themselves
	st := n.Underlying().(*types.Struct)
	for i := 0; i < st.NumFields(); i++ {
		k := g.classify(st.Field(i).Type())
		if !k.typed() || k == kAny {
			return false
		}
	}
	g.flats[n] = true
	g.flatQ = append(g.flatQ, n)
	return true
}

func (g *generator) flatName(n *types.Named) string {
	return g.pkgKey() + "." + n.Obj().Name()
}

func (g *generator) pf(format string, a ...any) {
	fmt.Fprintf(&g.body, format, a...)
}

// appendExpr renders "dst = <append of src>" for an argument position.
func (g *generator) appendExpr(k kind, n *types.Named, src string) string {
	switch k {
	case kBool:
		return "ser.AppendBool(dst, " + src + ")"
	case kInt:
		return "ser.AppendInt(dst, " + src + ")"
	case kInt64:
		return "ser.AppendInt64(dst, " + src + ")"
	case kFloat64:
		return "ser.AppendFloat64(dst, " + src + ")"
	case kString:
		return "ser.AppendString(dst, " + src + ")"
	case kBytes:
		return "ser.AppendBytes(dst, " + src + ")"
	case kF64s:
		return "ser.AppendF64s(dst, " + src + ")"
	case kF32s:
		return "ser.AppendF32s(dst, " + src + ")"
	case kI64s:
		return "ser.AppendI64s(dst, " + src + ")"
	case kI32s:
		return "ser.AppendI32s(dst, " + src + ")"
	case kInts:
		return "ser.AppendInts(dst, " + src + ")"
	case kProxy:
		return "core.AppendProxyArg(dst, " + src + ")"
	case kFuture:
		return "core.AppendFutureArg(dst, " + src + ")"
	case kFlat:
		return "charmgogenAppend" + n.Obj().Name() + "(dst, " + src + ")"
	}
	panic("gen: no append expression for kind")
}

// fieldAppendExpr is appendExpr for flat struct fields: slices use the
// nil-preserving variants.
func (g *generator) fieldAppendExpr(k kind, n *types.Named, src string) string {
	switch k {
	case kBytes:
		return "ser.AppendBytesOrNil(dst, " + src + ")"
	case kF64s:
		return "ser.AppendF64sOrNil(dst, " + src + ")"
	case kF32s:
		return "ser.AppendF32sOrNil(dst, " + src + ")"
	case kI64s:
		return "ser.AppendI64sOrNil(dst, " + src + ")"
	case kI32s:
		return "ser.AppendI32sOrNil(dst, " + src + ")"
	case kInts:
		return "ser.AppendIntsOrNil(dst, " + src + ")"
	}
	return g.appendExpr(k, n, src)
}

// readExpr renders the typed read for an argument position.
func (g *generator) readExpr(k kind, n *types.Named) string {
	switch k {
	case kBool:
		return "d.Bool()"
	case kInt:
		return "d.Int()"
	case kInt64:
		return "d.Int64()"
	case kFloat64:
		return "d.Float64()"
	case kString:
		return "d.Str()"
	case kBytes:
		return "d.Bytes()"
	case kF64s:
		return "d.F64s()"
	case kF32s:
		return "d.F32s()"
	case kI64s:
		return "d.I64s()"
	case kI32s:
		return "d.I32s()"
	case kInts:
		return "d.Ints()"
	case kProxy:
		return "core.ReadProxyArg(&d)"
	case kFuture:
		return "core.ReadFutureArg(&d)"
	case kFlat:
		return "charmgogenRead" + n.Obj().Name() + "(&d)"
	}
	panic("gen: no read expression for kind")
}

func (g *generator) fieldReadExpr(k kind, n *types.Named, dec string) string {
	switch k {
	case kBytes:
		return dec + ".BytesOrNil()"
	case kF64s:
		return dec + ".F64sOrNil()"
	case kF32s:
		return dec + ".F32sOrNil()"
	case kI64s:
		return dec + ".I64sOrNil()"
	case kI32s:
		return dec + ".I32sOrNil()"
	case kInts:
		return dec + ".IntsOrNil()"
	case kProxy:
		return "core.ReadProxyArg(" + dec + ")"
	case kFuture:
		return "core.ReadFutureArg(" + dec + ")"
	case kFlat:
		return "charmgogenRead" + n.Obj().Name() + "(" + dec + ")"
	case kBool:
		return dec + ".Bool()"
	case kInt:
		return dec + ".Int()"
	case kInt64:
		return dec + ".Int64()"
	case kFloat64:
		return dec + ".Float64()"
	case kString:
		return dec + ".Str()"
	}
	panic("gen: no field read expression for kind")
}

type param struct {
	k kind
	n *types.Named // set for kFlat
	t types.Type
}

// methodParams classifies a method's parameters. dispatchable reports
// whether a typed dispatch case can be emitted (nameable types, no variadic,
// at most one result).
func (g *generator) methodParams(fn *types.Func) (ps []param, dispatchable bool) {
	sig := fn.Type().(*types.Signature)
	dispatchable = !sig.Variadic() && sig.Results().Len() <= 1
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		k := g.classify(t)
		var n *types.Named
		if k == kFlat {
			n = t.(*types.Named)
		}
		if !g.nameable(t) {
			dispatchable = false
		}
		ps = append(ps, param{k: k, n: n, t: t})
	}
	return ps, dispatchable
}

func (g *generator) emitChare(ci analysis.ChareInfo) {
	tn := ci.Name()
	g.pf("// %s bindings: dispatch and per-method argument codecs.\n\n", tn)

	// Dispatch function.
	g.pf("func charmgogenDispatch%s(obj any, id int, args []any) (any, bool) {\n", tn)
	g.pf("\tself, ok := obj.(*%s)\n\tif !ok {\n\t\treturn nil, false\n\t}\n", tn)
	g.pf("\tswitch id {\n")
	for id, fn := range ci.Methods {
		ps, dispatchable := g.methodParams(fn)
		if !dispatchable {
			continue
		}
		sig := fn.Type().(*types.Signature)
		g.pf("\tcase %d: // %s\n", id, fn.Name())
		g.pf("\t\tif len(args) != %d {\n\t\t\treturn nil, false\n\t\t}\n", len(ps))
		var callArgs []string
		for i, p := range ps {
			if p.k == kAny {
				callArgs = append(callArgs, fmt.Sprintf("args[%d]", i))
				continue
			}
			g.pf("\t\ta%d, ok%d := args[%d].(%s)\n", i, i, i, g.goType(p.t))
			g.pf("\t\tif !ok%d {\n\t\t\treturn nil, false\n\t\t}\n", i)
			callArgs = append(callArgs, fmt.Sprintf("a%d", i))
		}
		call := fmt.Sprintf("self.%s(%s)", fn.Name(), strings.Join(callArgs, ", "))
		if sig.Results().Len() == 1 {
			g.pf("\t\treturn %s, true\n", call)
		} else {
			g.pf("\t\t%s\n\t\treturn nil, true\n", call)
		}
	}
	g.pf("\t}\n\treturn nil, false\n}\n\n")

	// Per-method codecs.
	for _, fn := range ci.Methods {
		ps, _ := g.methodParams(fn)
		g.emitEncoder(tn, fn, ps)
		g.emitDecoder(tn, fn, ps)
	}
}

// encodable reports whether an encoder argument needs a type assertion
// before its typed appender (kAny and kOther go through AppendAny untyped).
func assertable(p param) bool { return p.k != kAny && p.k != kOther }

func (g *generator) emitEncoder(tn string, fn *types.Func, ps []param) {
	name := fmt.Sprintf("charmgogenEnc%s%s", tn, fn.Name())
	g.pf("func %s(dst []byte, args []any) ([]byte, bool) {\n", name)
	g.pf("\tif len(args) != %d {\n\t\treturn dst, false\n\t}\n", len(ps))
	hasAny := false
	for i, p := range ps {
		if !assertable(p) {
			hasAny = true
			continue
		}
		if !g.nameable(p.t) {
			// Cannot type-assert; fall back entirely.
			hasAny = true
			continue
		}
		g.pf("\ta%d, ok%d := args[%d].(%s)\n", i, i, i, g.goType(p.t))
		g.pf("\tif !ok%d {\n\t\treturn dst, false\n\t}\n", i)
	}
	if hasAny {
		g.pf("\tstart := len(dst)\n")
	}
	g.pf("\tdst = ser.AppendCount(dst, %d)\n", len(ps))
	for i, p := range ps {
		if assertable(p) && g.nameable(p.t) {
			g.pf("\tdst = %s\n", g.appendExpr(p.k, p.n, fmt.Sprintf("a%d", i)))
		} else {
			g.pf("\tif out, err := ser.AppendAny(dst, args[%d]); err != nil {\n", i)
			g.pf("\t\treturn dst[:start], false\n\t} else {\n\t\tdst = out\n\t}\n")
		}
	}
	g.pf("\treturn dst, true\n}\n\n")
}

func (g *generator) emitDecoder(tn string, fn *types.Func, ps []param) {
	name := fmt.Sprintf("charmgogenDec%s%s", tn, fn.Name())
	g.pf("func %s(dst []any, data []byte, alias bool) ([]any, int, bool) {\n", name)
	g.pf("\td := ser.NewDec(data, alias)\n")
	g.pf("\tif d.Count() != %d {\n\t\treturn dst, 0, false\n\t}\n", len(ps))
	for i, p := range ps {
		if assertable(p) && g.nameable(p.t) {
			g.pf("\ta%d := %s\n", i, g.readExpr(p.k, p.n))
		} else {
			g.pf("\ta%d := d.Any()\n", i)
		}
	}
	g.pf("\tif !d.Ok() {\n\t\treturn dst, 0, false\n\t}\n")
	if len(ps) == 0 {
		g.pf("\treturn dst, d.Used(), true\n}\n\n")
		return
	}
	var elems []string
	for i := range ps {
		elems = append(elems, fmt.Sprintf("a%d", i))
	}
	g.pf("\treturn append(dst, %s), d.Used(), true\n}\n\n", strings.Join(elems, ", "))
}

// emitFlatHelpers writes append/read functions for every same-package struct
// queued by classification. The queue can grow while iterating (nested
// structs discovered during field classification are appended).
func (g *generator) emitFlatHelpers() {
	for qi := 0; qi < len(g.flatQ); qi++ {
		n := g.flatQ[qi]
		tn := n.Obj().Name()
		st := n.Underlying().(*types.Struct)
		wire := g.flatName(n)
		g.pf("// Flat codec for %s (wire name %q).\n\n", tn, wire)

		g.pf("func charmgogenFields%s(dst []byte, v %s) []byte {\n", tn, tn)
		g.pf("\tdst = ser.AppendCount(dst, %d)\n", st.NumFields())
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			k := g.classify(f.Type())
			var fn *types.Named
			if k == kFlat {
				fn = f.Type().(*types.Named)
			}
			g.pf("\tdst = %s\n", g.fieldAppendExpr(k, fn, "v."+f.Name()))
		}
		g.pf("\treturn dst\n}\n\n")

		g.pf("func charmgogenAppend%s(dst []byte, v %s) []byte {\n", tn, tn)
		g.pf("\treturn charmgogenFields%s(ser.AppendFlatHeader(dst, %q), v)\n}\n\n", tn, wire)

		g.pf("func charmgogenReadFields%s(d *ser.Dec) %s {\n", tn, tn)
		g.pf("\tvar v %s\n", tn)
		g.pf("\tif d.Count() != %d {\n\t\td.Abort(\"%s field count\")\n\t\treturn v\n\t}\n", st.NumFields(), tn)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			k := g.classify(f.Type())
			var fn *types.Named
			if k == kFlat {
				fn = f.Type().(*types.Named)
			}
			g.pf("\tv.%s = %s\n", f.Name(), g.fieldReadExpr(k, fn, "d"))
		}
		g.pf("\treturn v\n}\n\n")

		g.pf("func charmgogenRead%s(d *ser.Dec) %s {\n", tn, tn)
		g.pf("\tif !d.FlatHeader(%q) {\n\t\treturn %s{}\n\t}\n", wire, tn)
		g.pf("\treturn charmgogenReadFields%s(d)\n}\n\n", tn)
	}
}

func (g *generator) emitInit() {
	g.pf("func init() {\n")
	for _, n := range g.flatQ {
		tn := n.Obj().Name()
		g.pf("\tser.RegisterFlat(%q, %s{},\n", g.flatName(n), tn)
		g.pf("\t\tfunc(dst []byte, v any) ([]byte, bool) {\n")
		g.pf("\t\t\tx, ok := v.(%s)\n\t\t\tif !ok {\n\t\t\t\treturn dst, false\n\t\t\t}\n", tn)
		g.pf("\t\t\treturn charmgogenFields%s(dst, x), true\n\t\t},\n", tn)
		g.pf("\t\tfunc(d *ser.Dec) (any, bool) {\n")
		g.pf("\t\t\tv := charmgogenReadFields%s(d)\n\t\t\treturn v, d.Ok()\n\t\t})\n", tn)
	}
	for _, ci := range g.chares {
		tn := ci.Name()
		names := ci.MethodNames()
		g.pf("\tcore.RegisterGenerated(%q, &core.GenBinding{\n", g.pkgKey()+"."+tn)
		g.pf("\t\tType:     %q,\n", tn)
		g.pf("\t\tMethods:  []string{%s},\n", quoteList(names))
		g.pf("\t\tDispatch: charmgogenDispatch%s,\n", tn)
		g.pf("\t\tEnc: []func([]byte, []any) ([]byte, bool){\n")
		for _, fn := range ci.Methods {
			g.pf("\t\t\tcharmgogenEnc%s%s,\n", tn, fn.Name())
		}
		g.pf("\t\t},\n")
		g.pf("\t\tDec: []func([]any, []byte, bool) ([]any, int, bool){\n")
		for _, fn := range ci.Methods {
			g.pf("\t\t\tcharmgogenDec%s%s,\n", tn, fn.Name())
		}
		g.pf("\t\t},\n\t})\n")
	}
	g.pf("}\n")
}

func quoteList(ss []string) string {
	qs := make([]string, len(ss))
	for i, s := range ss {
		qs[i] = fmt.Sprintf("%q", s)
	}
	return strings.Join(qs, ", ")
}

// render assembles the final file: header, manifests, imports, body.
func (g *generator) render() ([]byte, error) {
	var out bytes.Buffer
	out.WriteString("// Code generated by charmgo gen. DO NOT EDIT.\n")
	out.WriteString("//\n")
	out.WriteString("// Typed dispatch and argument codecs for this package's chare types.\n")
	out.WriteString("// Regenerate with `make gen` after changing entry-method signatures;\n")
	out.WriteString("// the charmvet genfresh rule flags staleness from these manifests:\n")
	out.WriteString("//\n")
	for _, ci := range g.chares {
		fmt.Fprintf(&out, "// %s%s\n", analysis.ManifestPrefix, analysis.Manifest(ci))
	}
	out.WriteString("\n")
	fmt.Fprintf(&out, "package %s\n\n", g.pkg.Types.Name())
	out.WriteString("import (\n")
	paths := append([]string(nil), g.order...)
	sort.Strings(paths)
	for _, p := range paths {
		alias := g.imports[p]
		base := p[strings.LastIndex(p, "/")+1:]
		if alias == base {
			fmt.Fprintf(&out, "\t%q\n", p)
		} else {
			fmt.Fprintf(&out, "\t%s %q\n", alias, p)
		}
	}
	out.WriteString(")\n\n")
	out.Write(g.body.Bytes())
	src, err := format.Source(out.Bytes())
	if err != nil {
		// Return the unformatted source in the error for debuggability.
		return nil, fmt.Errorf("gen: formatting failed (%v); generated source:\n%s", err, out.Bytes())
	}
	return src, nil
}
