package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"
)

// TestSmokeWorkloads boots every workload, runs one short window with its
// plain-Go reference, and closes it with the final correctness sweep. It is
// the -short-safe guard that the benchmark still drives the system through
// its public functions; it measures nothing. The stencils run jobs of 10
// steps here, not the table's 0.3 s jobs.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads {
		boot := w.boot
		switch w.name {
		case "stencil_fine":
			boot = bootStencil(8, 8, 4, 10, 10, 5)
		case "stencil_coarse":
			boot = bootStencil(2, 1, 1, 10, 10, 5)
		}
		for _, observe := range []bool{false, true} {
			sys, err := boot(bootOpts{seed: 1, observe: observe})
			if err != nil {
				t.Fatalf("%s: boot: %v", w.name, err)
			}
			win, err := sys.window(20 * time.Millisecond)
			if err != nil {
				t.Fatalf("%s: window: %v", w.name, err)
			}
			failed, err := sys.close()
			if err != nil {
				t.Fatalf("%s: close: %v", w.name, err)
			}
			if win.ops == 0 || win.dur <= 0 || !(win.ratio > 0) {
				t.Errorf("%s: empty window %+v", w.name, win)
			}
			if win.failed+failed != 0 {
				t.Errorf("%s: %d operations failed in the window, %d in the final check", w.name, win.failed, failed)
			}
			if observe && w.name != "kv_closed" && !sys.observed().traced {
				t.Errorf("%s: observers recorded nothing", w.name)
			}
		}
	}
}

// TestSmokeProbes runs every layer probe for one batch and builds a budget
// from them.
func TestSmokeProbes(t *testing.T) {
	log := newSpanLog()
	root := log.begin("layers", 0, 0)
	pm, err := runProbes(0, 1, log, root)
	if err != nil {
		t.Fatal(err)
	}
	log.end(root, 0)
	for _, p := range probes {
		if v, ok := pm[p.name]; !ok || v < 0 || (v == 0 && p.name != "ser.allocs_per_roundtrip_small") {
			t.Errorf("probe %s = %v", p.name, v)
		}
	}
	// a budget row that reads 0 names a probe that does not exist
	b := remoteInvokeBudget(pm)
	for _, r := range append(b.rows, budgetRow{b.wholeName, b.whole}) {
		if !(r.us > 0) {
			t.Errorf("remote_invoke budget: %s = %v", r.name, r.us)
		}
	}
	// every probe span has its batches as children, so none has negative self time
	for id, self := range selfTimes(log.spans) {
		if self < 0 {
			t.Errorf("span %d (%s) has self time %d", id, log.spans[id-1].Name, self)
		}
	}
}

// TestManifestMatchesCode keeps BENCHMARK.json equal to the tables the
// harness reports from.
func TestManifestMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, code says %d", m.RunSeconds, runSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the code", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, code %q / %q", i, m.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.name, len(w.why))
		}
	}
	want := func(defs []metricDef, bounded bool) []metric {
		var out []metric
		for _, d := range defs {
			x := metric{Name: d.name, Unit: d.unit, Better: "lower"}
			if d.higher {
				x.Better = "higher"
			}
			if bounded {
				b := d.bound
				x.Bound = &b
			}
			out = append(out, x)
		}
		return out
	}
	if got, w := m.EndToEnd, want(endToEnd, true); !reflect.DeepEqual(got, w) {
		t.Errorf("end_to_end differs:\nmanifest %+v\ncode     %+v", got, w)
	}
	if got, w := m.PerLayer, want(perLayer(), false); !reflect.DeepEqual(got, w) {
		t.Errorf("per_layer differs:\nmanifest %+v\ncode     %+v", got, w)
	}
}

// TestStreamBaselineConnects guards the plain-Go stream baseline's set-up: a
// listener closed before the server had accepted reset about one connection
// in 750, which failed the run that drew it.
func TestStreamBaselineConnects(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 100
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		b, err := newStreamBaseline()
		if err != nil {
			t.Fatalf("baseline %d: %v", i, err)
		}
		if _, _, err := b.run(rng, 0); err != nil {
			t.Fatalf("baseline %d: run: %v", i, err)
		}
		if err := b.close(); err != nil {
			t.Fatalf("baseline %d: close: %v", i, err)
		}
	}
}
