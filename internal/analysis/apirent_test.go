package analysis

import (
	"bufio"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// allowlistMax bounds the golden allowlist: exported API kept without a
// caller is the exception, each entry justified by a citation.
const allowlistMax = 40

// citation is what an allowlist entry must cite: a charmgo.go declaration,
// a paper section, a PAPER.md substitution row or a docs/TUTORIAL.md section.
var citation = regexp.MustCompile(`^(charmgo\.go: \S|paper §[IVX]+(-[A-Z0-9]+)*\b|PAPER\.md: \S|docs/TUTORIAL\.md §\S)`)

// exemptPkgs hold test helpers: their callers are _test.go files by design.
var exemptPkgs = map[string]bool{
	"internal/testport":  true,
	"internal/leakcheck": true,
}

// TestExportedAPIPaysRent fails on any identifier declared in internal/...
// — a package-level identifier or a method, exported or not — that no
// non-test file of the module uses (charmgo.go, cmd/, examples/ and
// benchmark/ count as callers); a use inside the identifier's own
// declaration, such as a self-recursive call, does not count. A
// method is exempt when its receiver type implements an interface of any
// loaded package (the standard library included) that has the method's
// name, since such a method is called through the interface. What is kept
// without a caller is listed, with its citation, in
// testdata/api_allowlist.txt; an entry that stops being a finding is stale
// and fails too.
func TestExportedAPIPaysRent(t *testing.T) {
	mod, err := LoadModule(".")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	pkgs, err := mod.Load("./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	allow := readAllowlist(t, filepath.Join("testdata", "api_allowlist.txt"))

	found := unusedAPI(mod, pkgs)
	for _, name := range found {
		if _, ok := allow[name]; !ok {
			t.Errorf("%s has no caller outside tests: delete it, or allowlist it with a citation", name)
		}
	}
	live := map[string]bool{}
	for _, name := range found {
		live[name] = true
	}
	for name := range allow {
		if !live[name] {
			t.Errorf("allowlist entry %s is stale: it has a caller now, or is gone", name)
		}
	}
}

// readAllowlist parses "<identifier> <citation>" lines; blank lines and
// lines starting with # are ignored.
func readAllowlist(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("allowlist: %v", err)
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, cite, _ := strings.Cut(line, " ")
		cite = strings.TrimSpace(cite)
		if !citation.MatchString(cite) {
			t.Errorf("%s:%d: %s cites %q, not a charmgo.go declaration, paper section, PAPER.md row or docs/TUTORIAL.md section", path, n, name, cite)
		}
		if _, dup := allow[name]; dup {
			t.Errorf("%s:%d: %s listed twice", path, n, name)
		}
		allow[name] = cite
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("allowlist: %v", err)
	}
	if len(allow) > allowlistMax {
		t.Errorf("allowlist has %d entries, at most %d allowed", len(allow), allowlistMax)
	}
	return allow
}

// unusedAPI returns, sorted, the module-relative names ("internal/pkg.Name",
// "internal/pkg.Type.Method") of the internal/... identifiers that no
// non-test file uses.
func unusedAPI(mod *Module, pkgs []*Package) []string {
	type held struct {
		name string
		obj  types.Object
	}
	var all []held
	own := map[types.Object]ast.Node{}
	for _, p := range pkgs {
		rel := strings.TrimPrefix(p.ImportPath, mod.Path+"/")
		if !strings.HasPrefix(rel, "internal/") || exemptPkgs[rel] {
			continue
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				for _, d := range declObjects(p.Info, decl) {
					own[d.obj] = d.decl
					all = append(all, held{rel + "." + qualName(d.obj), d.obj})
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			obj = origin(obj)
			if d := own[obj]; d != nil && d.Pos() <= id.Pos() && id.Pos() < d.End() {
				continue // inside its own declaration: recursion is no caller
			}
			used[obj] = true
		}
	}
	ifaces := loadedInterfaces(mod)

	var out []string
	for _, h := range all {
		if !used[h.obj] && !viaInterface(h.obj, ifaces) {
			out = append(out, h.name)
		}
	}
	sort.Strings(out)
	return out
}

// declared is an object the test holds to, with the declaration (the
// function or the spec) whose uses of it do not count.
type declared struct {
	obj  types.Object
	decl ast.Node
}

// declObjects lists the objects a top-level declaration defines that the
// test holds to: package-level identifiers (but init, main and _) and
// methods.
func declObjects(info *types.Info, decl ast.Decl) []declared {
	var out []declared
	add := func(id *ast.Ident, n ast.Node) {
		if id.Name == "_" || id.Name == "init" || id.Name == "main" {
			return
		}
		if obj := info.Defs[id]; obj != nil {
			out = append(out, declared{obj, n})
		}
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		add(d.Name, d)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.ValueSpec:
				for _, id := range s.Names {
					add(id, s)
				}
			case *ast.TypeSpec:
				add(s.Name, s)
			}
		}
	}
	return out
}

// origin maps an instantiated generic function, method or field to its
// generic declaration, so that a use of Bind[T] counts for Bind.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// loadedInterfaces lists the non-generic named interfaces of every loaded
// package, module and standard library alike, plus error and the interface
// literals of module code (a type assertion to interface{ PeerAlive(int) bool }
// calls PeerAlive).
func loadedInterfaces(mod *Module) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, p := range mod.pkgs {
		if p.Info != nil {
			for _, tv := range p.Info.Types {
				if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	return ifaces
}

// viaInterface reports whether obj is a method whose receiver type (or its
// pointer) implements an interface that has a method of the same name.
func viaInterface(obj types.Object, ifaces []*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	t := recvType(fn)
	if t == nil {
		return false
	}
	if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		if declaresMethod(it, fn.Name()) && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
			return true
		}
	}
	return false
}

func declaresMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// recvType is a method's receiver type without its pointer, nil for a
// function.
func recvType(fn *types.Func) types.Type {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	if ptr, ok := recv.Type().(*types.Pointer); ok {
		return ptr.Elem()
	}
	return recv.Type()
}

// qualName is obj's name, prefixed by its receiver's type name for a method.
func qualName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if named, ok := recvType(fn).(*types.Named); ok {
			return named.Obj().Name() + "." + obj.Name()
		}
	}
	return obj.Name()
}
