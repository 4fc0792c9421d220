package analysis

// All is the full charmvet suite, in report order. IDs are stable: new rules
// append, existing rules never renumber, and a deleted rule's ID is not
// reused (CV006 was genfresh, the freshness check of generated bindings).
var All = []*Analyzer{
	EntrySig,    // CV001
	GobSafe,     // CV002
	NoBlock,     // CV003
	TraceHook,   // CV004
	SendOwn,     // CV005
	AliasEscape, // CV007
	MigrateSafe, // CV008
	ChareRace,   // CV009
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
