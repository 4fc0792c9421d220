package analysis

import (
	"fmt"
	"go/types"
	"strings"
)

// typegraph.go is the module-wide type-graph cache shared by the structural
// rules: gobsafe's hidden-field walk and migratesafe's migratability walk
// both traverse the same field graphs, so their verdicts are memoized per
// type on the ModuleFacts every pass already shares. The cache is sound to
// share across packages because verdicts depend only on type identity.
type TypeGraph struct {
	hidden map[types.Type]hiddenRes
	mig    map[types.Type][]MigIssue
	inMig  map[types.Type]bool
}

func newTypeGraph() *TypeGraph {
	return &TypeGraph{
		hidden: map[types.Type]hiddenRes{},
		mig:    map[types.Type][]MigIssue{},
		inMig:  map[types.Type]bool{},
	}
}

type hiddenRes struct {
	named *types.Named
	field string
	done  bool
}

// HiddenFields walks t and returns the first reachable struct type carrying
// an unexported field, with the field name. Runtime types and types with
// custom marshalling are trusted. Results are memoized per type.
func (tg *TypeGraph) HiddenFields(t types.Type) (*types.Named, string) {
	return tg.hiddenWalk(t, map[types.Type]bool{})
}

func (tg *TypeGraph) hiddenWalk(t types.Type, seen map[types.Type]bool) (*types.Named, string) {
	if r, ok := tg.hidden[t]; ok && r.done {
		return r.named, r.field
	}
	if seen[t] {
		return nil, ""
	}
	seen[t] = true
	named, field := tg.hiddenWalk1(t, seen)
	tg.hidden[t] = hiddenRes{named, field, true}
	return named, field
}

func (tg *TypeGraph) hiddenWalk1(t types.Type, seen map[types.Type]bool) (*types.Named, string) {
	named := namedOf(t)
	if named != nil {
		tn := named.Obj()
		if tn.Pkg() == nil || tn.Pkg().Path() == corePkgPath {
			return nil, ""
		}
		if hasMethod(named, "GobEncode") || hasMethod(named, "MarshalBinary") {
			return nil, ""
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		return tg.hiddenWalk(u.Elem(), seen)
	case *types.Slice:
		return tg.hiddenWalk(u.Elem(), seen)
	case *types.Array:
		return tg.hiddenWalk(u.Elem(), seen)
	case *types.Map:
		if off, f := tg.hiddenWalk(u.Key(), seen); off != nil {
			return off, f
		}
		return tg.hiddenWalk(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if !f.Exported() && named != nil {
				return named, f.Name()
			}
		}
		for i := 0; i < u.NumFields(); i++ {
			if off, fn := tg.hiddenWalk(u.Field(i).Type(), seen); off != nil {
				return off, fn
			}
		}
	}
	return nil, ""
}

// MigIssue is one reason a chare type cannot migrate: a field (named by its
// path from the chare struct) whose type the migration codec either rejects
// at runtime (exported chan/func/sync primitive — gob errors at the first
// checkpoint) or silently zeroes (unexported — the chare resumes with the
// field's zero value on the destination PE).
type MigIssue struct {
	Path   string // ".Conn.mu" style field path from the chare struct
	Kind   string // human description of the offending type
	Silent bool   // unexported somewhere on the path: dropped, not rejected
}

// pe-local instrumentation/runtime packages whose handles must never ride a
// migration blob: they are bound to the origin node's sockets, ring buffers
// and counters.
var peLocalPkgs = map[string]bool{
	"charmgo/internal/transport": true,
	"charmgo/internal/trace":     true,
	"charmgo/internal/metrics":   true,
}

// MigIssues walks t's field graph and returns every distinct non-migratable
// field, memoized per type. The walk trusts core runtime types (the runtime
// re-binds proxies/futures on arrival, rebind.go) and types with custom gob
// or binary marshalling — with one exception: a *core.Runtime field is
// PE-local by definition and always reported.
func (tg *TypeGraph) MigIssues(t types.Type) []MigIssue {
	if r, ok := tg.mig[t]; ok {
		return r
	}
	if tg.inMig[t] {
		return nil // cycle: the first frame owns the verdict
	}
	tg.inMig[t] = true
	r := tg.migWalk(t, "", false)
	delete(tg.inMig, t)
	tg.mig[t] = r
	return r
}

func (tg *TypeGraph) migWalk(t types.Type, path string, silent bool) []MigIssue {
	if isNamedType(t, corePkgPath, "Runtime") {
		return []MigIssue{{path, "a *core.Runtime handle (PE-local)", silent}}
	}
	if named := namedOf(t); named != nil {
		tn := named.Obj()
		if tn.Pkg() != nil {
			switch {
			case peLocalPkgs[tn.Pkg().Path()]:
				return []MigIssue{{path, fmt.Sprintf("a %s.%s handle (PE-local)", lastSeg(tn.Pkg().Path()), tn.Name()), silent}}
			case tn.Pkg().Path() == "sync":
				return []MigIssue{{path, "a sync." + tn.Name(), silent}}
			case tn.Pkg().Path() == corePkgPath:
				return nil // rebound on arrival (rebind.go)
			}
		}
		if hasMethod(named, "GobEncode") || hasMethod(named, "MarshalBinary") {
			return nil // custom wire representation
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Chan:
		return []MigIssue{{path, "a channel", silent}}
	case *types.Signature:
		return []MigIssue{{path, "a function value", silent}}
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			return []MigIssue{{path, "an unsafe.Pointer", silent}}
		}
	case *types.Pointer:
		return tg.migWalkSub(u.Elem(), path, silent)
	case *types.Slice:
		return tg.migWalkSub(u.Elem(), path, silent)
	case *types.Array:
		return tg.migWalkSub(u.Elem(), path, silent)
	case *types.Map:
		out := tg.migWalkSub(u.Key(), path, silent)
		return append(out, tg.migWalkSub(u.Elem(), path, silent)...)
	case *types.Struct:
		var out []MigIssue
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if isNamedType(f.Type(), corePkgPath, "Chare") && f.Embedded() {
				continue // the embedded base itself is runtime-managed
			}
			out = append(out, tg.migWalkSub(f.Type(), path+"."+f.Name(), silent || !f.Exported())...)
		}
		return out
	}
	return nil
}

// migWalkSub recurses through MigIssues' memo so shared subtrees are walked
// once, then re-prefixes the returned paths and silence.
func (tg *TypeGraph) migWalkSub(t types.Type, path string, silent bool) []MigIssue {
	sub := tg.MigIssues(t)
	if len(sub) == 0 {
		return nil
	}
	out := make([]MigIssue, len(sub))
	for i, is := range sub {
		out[i] = MigIssue{path + is.Path, is.Kind, silent || is.Silent}
	}
	return out
}

func lastSeg(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
