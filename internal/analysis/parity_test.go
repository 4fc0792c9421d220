package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenParity asserts that moving the original rules onto the shared
// dataflow engine changed no diagnostic (a sixth, genfresh, was deleted with
// the code generator it checked): testdata/golden/<rule>.golden
// was captured from the pre-engine implementations over the same fixture
// packages, and the migrated rules must reproduce it byte for byte —
// positions, ordering, and message text included.
//
// The interprocedural shapes the engine newly catches live in their own
// fixture package (testdata/src/sendowninter), so this comparison stays
// meaningful: on the original fixtures, old and new must agree exactly.
func TestGoldenParity(t *testing.T) {
	mod, err := LoadModule(".")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	cases := []struct {
		name string
		a    *Analyzer
	}{
		{"entrysig", EntrySig},
		{"gobsafe", GobSafe},
		{"noblock", NoBlock},
		{"tracehook", TraceHook},
		{"sendown", SendOwn},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkg, err := mod.LoadDir(filepath.Join("testdata", "src", tc.name))
			if err != nil {
				t.Fatalf("LoadDir(%s): %v", tc.name, err)
			}
			var sb strings.Builder
			for _, d := range Run([]*Analyzer{tc.a}, []*Package{pkg}, mod.Fset) {
				s := d.String()
				// Goldens store module-root-relative paths so they are
				// machine-independent.
				if rel, err := filepath.Rel(mod.Root, d.Pos.Filename); err == nil {
					s = rel + strings.TrimPrefix(s, d.Pos.Filename)
				}
				sb.WriteString(s + "\n")
			}
			path := filepath.Join("testdata", "golden", tc.name+".golden")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
					t.Fatalf("update golden: %v", err)
				}
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("golden: %v", err)
			}
			if sb.String() != string(golden) {
				t.Errorf("diagnostics diverge from the pre-engine golden\n--- got ---\n%s--- want ---\n%s", sb.String(), golden)
			}
		})
	}
}
