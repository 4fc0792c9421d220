// Package analysis implements charmvet, a static checker for the CharmGo
// programming-model invariants that the Go compiler cannot see (DESIGN.md
// §3.3). Entry methods are invoked via reflection, their arguments
// round-trip through internal/ser's codec (gob fallback), and every chare
// shares its PE's scheduler goroutine — so a signature the dispatcher cannot
// call, a struct gob silently truncates, or a blocking call in an entry
// method all compile cleanly and fail (or worse, silently corrupt state) at
// runtime. Each analyzer in this package turns one such invariant into a
// compile-time-style diagnostic.
//
// The package is self-hosting on the standard library: go/parser, go/ast,
// go/types and a small module loader (loader.go) stand in for x/tools,
// which is unavailable offline.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned for file:line:col reporting.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Analyzer is one named check. ID is the stable machine-readable identifier
// surfaced by `charmvet -json`; it never changes once assigned, even if the
// rule is renamed.
type Analyzer struct {
	Name string
	ID   string
	Doc  string
	Run  func(*Pass)
}

// Pass is one analyzer's view of one package. EntryMethods are the
// package's entry-method declarations, found once and shared by every
// analyzer over the package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Mod      *ModuleFacts

	EntryMethods []entryMethod

	diags      *[]Diagnostic
	suppressed map[suppressKey]bool
}

type suppressKey struct {
	file  string
	line  int
	check string
}

// Reportf records a diagnostic unless the line (or the line above it)
// carries a `//charmvet:ignore <check>` comment.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	for _, line := range []int{position.Line, position.Line - 1} {
		if p.suppressed[suppressKey{position.Filename, line, p.Analyzer.Name}] ||
			p.suppressed[suppressKey{position.Filename, line, "*"}] {
			return
		}
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     position,
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// collectSuppressions scans comments for charmvet:ignore directives.
func collectSuppressions(fset *token.FileSet, files []*ast.File) map[suppressKey]bool {
	sup := map[suppressKey]bool{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "charmvet:ignore")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				checks := strings.Fields(rest)
				if len(checks) == 0 {
					sup[suppressKey{pos.Filename, pos.Line, "*"}] = true
					continue
				}
				for _, chk := range checks {
					sup[suppressKey{pos.Filename, pos.Line, chk}] = true
				}
			}
		}
	}
	return sup
}

// ModuleFacts carries cross-package knowledge shared by every pass:
// which concrete types are registered with the gob fallback anywhere in the
// module, which types are registered as chares (the runtime registers
// those with gob itself), and the module-wide type-graph cache the
// structural rules (gobsafe, migratesafe) share.
type ModuleFacts struct {
	// GobRegistered holds types.TypeString keys (pointer stripped) of every
	// type passed to ser.RegisterType or gob.Register in non-test module
	// code.
	GobRegistered map[string]bool
	// ChareRegistered holds type strings of prototypes passed to
	// Runtime.Register (or pool-style wrappers calling it).
	ChareRegistered map[string]bool
	// TG memoizes field-graph walks (hidden fields, migratability) per type
	// across the whole run.
	TG *TypeGraph
}

// Run executes analyzers over packages, sharing one ModuleFacts, and
// returns the diagnostics sorted by position.
func Run(analyzers []*Analyzer, pkgs []*Package, fset *token.FileSet) []Diagnostic {
	facts := gatherModuleFacts(pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		if pkg.Info == nil {
			continue
		}
		sup := collectSuppressions(fset, pkg.Files)
		ems := findEntryMethods(pkg)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:     a,
				Fset:         fset,
				Files:        pkg.Files,
				Pkg:          pkg.Types,
				Info:         pkg.Info,
				Mod:          facts,
				EntryMethods: ems,
				diags:        &diags,
				suppressed:   sup,
			}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags
}

// gatherModuleFacts pre-scans every package for codec/chare registrations.
func gatherModuleFacts(pkgs []*Package) *ModuleFacts {
	facts := &ModuleFacts{
		GobRegistered:   map[string]bool{},
		ChareRegistered: map[string]bool{},
		TG:              newTypeGraph(),
	}
	for _, pkg := range pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				obj := calleeObject(pkg.Info, call)
				if obj == nil {
					return true
				}
				switch {
				case isFunc(obj, "charmgo/internal/ser", "RegisterType"),
					isFunc(obj, "encoding/gob", "Register"):
					if t := pkg.Info.TypeOf(call.Args[0]); t != nil {
						facts.GobRegistered[typeKey(t)] = true
					}
				case obj.Name() == "Register" && isMethodOf(obj, "charmgo/internal/core", "Runtime"):
					if t := pkg.Info.TypeOf(call.Args[0]); t != nil {
						key := typeKey(t)
						facts.ChareRegistered[key] = true
						facts.GobRegistered[key] = true
					}
				}
				return true
			})
		}
	}
	return facts
}

// ---- shared type/AST helpers ----

// calleeObject resolves the object a call expression invokes, looking
// through selector and plain-identifier callees.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			return sel.Obj()
		}
		return info.Uses[fn.Sel] // package-qualified call
	}
	return nil
}

// isFunc reports whether obj is the package-level function pkgPath.name.
func isFunc(obj types.Object, pkgPath, name string) bool {
	return obj != nil && obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// isMethodOf reports whether obj is a method whose receiver's base type is
// the named type pkgPath.typeName.
func isMethodOf(obj types.Object, pkgPath, typeName string) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named := namedOf(sig.Recv().Type())
	if named == nil {
		return false
	}
	tn := named.Obj()
	return tn.Name() == typeName && tn.Pkg() != nil && tn.Pkg().Path() == pkgPath
}

// namedOf unwraps pointers and aliases down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(t)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// isNamedType reports whether t (possibly behind pointers/aliases) is the
// named type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	named := namedOf(t)
	if named == nil {
		return false
	}
	tn := named.Obj()
	return tn.Name() == name && tn.Pkg() != nil && tn.Pkg().Path() == pkgPath
}

// typeKey is the registration-matching key for a type: its full type string
// with any top-level pointer stripped (gob registers &T{} and T
// equivalently for our purposes).
func typeKey(t types.Type) string {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	} else if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return types.TypeString(t, nil)
}
