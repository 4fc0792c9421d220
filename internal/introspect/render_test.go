package introspect

import (
	"strings"
	"testing"
	"time"
)

func renderSnap() ClusterSnapshot {
	return ClusterSnapshot{
		Nodes:          2,
		TotalPEs:       4,
		SampleInterval: 250 * time.Millisecond,
		Node: []NodeView{
			{NodeSnapshot: NodeSnapshot{
				Node: 0, BasePE: 0, Seq: 3, TotalPEs: 4,
				SendsLocal: 100, SendsWire: 40,
				PEs: []PESample{
					{PE: 0, Util: 1.0, MailboxDepth: 2, TotalEMs: 500},
					{PE: 1, Util: 0.0, TotalEMs: 10},
				},
				Colls: []CollSample{{
					CID: 1, Type: "Shard", Kind: "sparse", Elems: 8,
					Hot: []HotElem{
						{Index: []int{0}, PE: 0, LoadMillis: 900},
						{Index: []int{3}, PE: 1, LoadMillis: 50},
					},
				}},
				CommBytes: []int64{0, 0, 2048, 0, 0, 0, 0, 1 << 20},
			}},
			{NodeSnapshot: NodeSnapshot{
				Node: 1, BasePE: 2, Seq: 2, TotalPEs: 4,
				PEs: []PESample{
					{PE: 2, Util: 0.5, TotalEMs: 200},
					{PE: 3, Util: 0.25, TotalEMs: 100},
				},
			}},
		},
	}
}

func TestRenderBasics(t *testing.T) {
	out := Render(renderSnap(), RenderOptions{BarWidth: 10})
	for _, want := range []string{
		"2 nodes, 4 PEs",
		"sample interval 250ms",
		"node 0", "node 1",
		"PE 0", "PE 3",
		"100.0%",
		"[||||||||||]", // full bar at BarWidth 10
		"[          ]", // idle bar
		"Shard",
		"900.000ms",
		"top wire flows (cumulative):",
		"PE 0 → PE 2: 2.0KiB",
		"PE 1 → PE 3: 1.0MiB",
		"mbox 2     ems 500",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}

func TestRenderAdmission(t *testing.T) {
	s := renderSnap()
	if out := Render(s, RenderOptions{}); strings.Contains(out, "admission") {
		t.Fatalf("admission line rendered for nodes without a gate:\n%s", out)
	}
	s.Node[0].Admission = &AdmissionSample{
		Rejected: 7, Delayed: 3, DepthCount: 1200, DepthP50: 4, DepthP99: 96,
	}
	out := Render(s, RenderOptions{})
	if !strings.Contains(out, "admission shed=7 delayed=3  mbox depth p50/p99 4/96 (1200 obs)") {
		t.Errorf("admission line missing or malformed:\n%s", out)
	}
}

func TestRenderTopK(t *testing.T) {
	out := Render(renderSnap(), RenderOptions{TopK: 1})
	if !strings.Contains(out, "900.000ms") {
		t.Error("hottest element missing")
	}
	if strings.Contains(out, "50.000ms") {
		t.Error("TopK=1 still shows the second-hottest element")
	}
}

func TestRenderStatuses(t *testing.T) {
	s := renderSnap()
	s.Node[0].Dead = true
	s.Node[1].Missing = true
	out := Render(s, RenderOptions{})
	if !strings.Contains(out, "[DEAD]") || !strings.Contains(out, "[no sample yet]") {
		t.Errorf("statuses missing:\n%s", out)
	}
	if strings.Contains(out, "mbox") {
		t.Error("dead node still renders PE bars")
	}
}

func TestRenderCommDelta(t *testing.T) {
	prev := renderSnap()
	cur := renderSnap()
	cur.Node[0].CommBytes = []int64{0, 0, 4096, 0, 0, 0, 0, 1 << 20}
	out := Render(cur, RenderOptions{Prev: &prev})
	if !strings.Contains(out, "since last frame") {
		t.Errorf("delta label missing:\n%s", out)
	}
	if !strings.Contains(out, "PE 0 → PE 2: 2.0KiB") {
		t.Errorf("delta flow wrong:\n%s", out)
	}
	// The unchanged 1MiB flow must vanish from the delta view.
	if strings.Contains(out, "1.0MiB") {
		t.Errorf("unchanged flow still shown in delta:\n%s", out)
	}
}

func TestCommMatrixIgnoresMalformedRows(t *testing.T) {
	s := renderSnap()
	s.Node[0].CommBytes = []int64{1, 2, 3} // wrong length: rows*totalPEs = 8
	if m := commMatrix(s); m != nil {
		t.Errorf("malformed rows produced a matrix: %v", m)
	}
}
