package analysis

// All is the full charmvet suite, in report order. IDs are stable: new rules
// append, existing rules never renumber, and a deleted rule's ID is not
// reused. Retired: CV004 tracehook, CV005 sendown, CV007 aliasescape and
// CV009 charerace (the first two policed the runtime's own code, the third
// a recycled delivery buffer the runtime no longer has, the fourth a race
// `go test -race` reports), and CV006 genfresh (the generated bindings it
// checked are gone).
var All = []*Analyzer{
	EntrySig,    // CV001
	GobSafe,     // CV002
	NoBlock,     // CV003
	MigrateSafe, // CV008
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// ByID returns the analyzer with the given stable ID, or nil.
func ByID(id string) *Analyzer {
	for _, a := range All {
		if a.ID == id {
			return a
		}
	}
	return nil
}
