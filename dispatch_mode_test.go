package charmgo_test

import (
	"testing"

	"charmgo/internal/core"
	"charmgo/internal/leanmd"
	"charmgo/internal/metrics"
	"charmgo/internal/stencil"
)

// TestDispatchModeReachesMiniApps holds the paper's comparison to what it
// claims: the two mini-apps bind typed entry-method handles (core.Bind), so
// Interpreted mode must make no typed dispatch at all, and Compiled mode no
// reflective one beyond the main chare's Run. When bindings leaked into
// Interpreted mode, both modes timed the same typed path and the interpreted-vs-
// compiled gap read zero. It counts dispatches; it does not time anything.
func TestDispatchModeReachesMiniApps(t *testing.T) {
	apps := []struct {
		name string
		run  func(core.Config) error
	}{
		{"stencil", func(cfg core.Config) error {
			p := stencil.Params{GridX: 16, GridY: 16, GridZ: 16, BX: 2, BY: 2, BZ: 2, Iters: 3}
			_, err := stencil.RunCharm(p, cfg)
			return err
		}},
		{"leanmd", func(cfg core.Config) error {
			p := leanmd.DefaultParams()
			p.Steps = 5
			_, err := leanmd.RunCharm(p, cfg)
			return err
		}},
	}
	for _, app := range apps {
		for _, mode := range []core.DispatchMode{core.StaticDispatch, core.DynamicDispatch} {
			reg := metrics.NewRegistry()
			if err := app.run(core.Config{PEs: 2, Dispatch: mode, Metrics: reg}); err != nil {
				t.Fatalf("%s: %v", app.name, err)
			}
			gen := reg.Counter("charmgo_dispatch_generated_total", "").Value()
			refl := reg.Counter("charmgo_dispatch_dynamic_total", "").Value()
			t.Logf("%s mode %d: %d generated, %d reflective dispatches", app.name, mode, gen, refl)
			switch mode {
			case core.DynamicDispatch:
				if gen != 0 || refl == 0 {
					t.Errorf("%s Interpreted: %d generated and %d reflective dispatches, want 0 and > 0", app.name, gen, refl)
				}
			case core.StaticDispatch:
				if gen == 0 || refl > 1 {
					t.Errorf("%s Compiled: %d generated and %d reflective dispatches, want > 0 and <= 1 (the main chare)", app.name, gen, refl)
				}
			}
		}
	}
}
