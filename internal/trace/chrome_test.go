package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestRingBufferCapAndDropped(t *testing.T) {
	const cap = 8
	tr := NewWithCap(1, cap)
	for i := 0; i < 3*cap; i++ {
		tr.EM(0, "C", "M", time.Duration(i), 1)
	}
	evs := tr.Snapshot()
	if len(evs) != cap {
		t.Fatalf("snapshot holds %d events, want ring cap %d", len(evs), cap)
	}
	if got := tr.Dropped(); got != 2*cap {
		t.Errorf("dropped = %d, want %d", got, 2*cap)
	}
	// The ring keeps the newest events, in order.
	for i, e := range evs {
		want := time.Duration(2*cap + i)
		if e.At != want {
			t.Errorf("evs[%d].At = %v, want %v (oldest overwritten first)", i, e.At, want)
		}
	}
	// Dropped count propagates into reports and summaries.
	if rep := tr.Report(0); rep.Dropped != 2*cap {
		t.Errorf("report dropped = %d, want %d", rep.Dropped, 2*cap)
	}
}

func TestCommMatrix(t *testing.T) {
	tr := New(2)
	tr.SetTopology(4, 0)
	tr.Comm(0, 3, 100)
	tr.Comm(0, 3, 50)
	tr.Comm(3, 0, 7)
	tr.Comm(-1, 3, 999) // broadcast: not attributable, must be ignored
	tr.Comm(0, 99, 999) // out of range: ignored
	rep := tr.Report(0)
	if got := rep.CommBytes[0*4+3]; got != 150 {
		t.Errorf("bytes 0->3 = %d, want 150", got)
	}
	if got := rep.CommMsgs[0*4+3]; got != 2 {
		t.Errorf("msgs 0->3 = %d, want 2", got)
	}
	if got := rep.CommBytes[3*4+0]; got != 7 {
		t.Errorf("bytes 3->0 = %d, want 7", got)
	}
}

func TestRecordZeroAlloc(t *testing.T) {
	tr := New(2)
	if n := testing.AllocsPerRun(1000, func() {
		tr.EM(0, "C", "M", 1, 2)
		tr.Recv(1, "M", 3, 1)
		tr.Idle(0, 4, 1)
	}); n != 0 {
		t.Errorf("event recording allocates %v/op, want 0", n)
	}
	tr.SetTopology(2, 0)
	if n := testing.AllocsPerRun(1000, func() { tr.Comm(0, 1, 64) }); n != 0 {
		t.Errorf("Comm allocates %v/op, want 0", n)
	}
}

// buildReports fabricates a two-node job's worth of reports.
func buildReports() []Report {
	trs := []*Tracer{New(2), New(2)}
	for node, tr := range trs {
		tr.SetTopology(4, node*2)
		tr.EM(0, "Block", "RecvGhost", 10, 5)
		tr.EM(1, "Block", "RecvGhost", 12, 6)
		tr.Idle(0, 0, 10)
		tr.Recv(0, "RecvGhost", 10, 2)
		tr.SendTo(0, (node*2+3)%4, "RecvGhost", 11, 0)
		tr.Flush(node, 20, 4096, 7, "idle")
		tr.Frame(true, 1-node, 21, 4100)
		tr.Frame(false, 1-node, 22, 2100)
		tr.TreeHop(1-node, 23, 4100)
		tr.Frag(1-node, 24, 65536, 3)
		tr.Comm(node*2, (node*2+3)%4, 4096)
	}
	return []Report{trs[0].Report(0), trs[1].Report(1)}
}

func TestWriteChromeValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, buildReports()...); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var emSpans, idleSpans, threadNames int
	tids := map[int]bool{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			if e.Dur < 0 {
				t.Errorf("negative dur in %q", e.Name)
			}
			if e.Name == "(idle)" {
				idleSpans++
				continue
			}
			emSpans++
			tids[e.Tid] = true
		case "M":
			if e.Name == "thread_name" {
				threadNames++
			}
		}
	}
	if emSpans != 4 {
		t.Errorf("EM spans = %d, want 4", emSpans)
	}
	if idleSpans != 2 {
		t.Errorf("idle spans = %d, want 2", idleSpans)
	}
	// EM spans from node 1 must land on global-PE tracks 2 and 3.
	if !tids[2] || !tids[3] {
		t.Errorf("X-event tids = %v, want node 1's PEs mapped to 2 and 3", tids)
	}
	if threadNames == 0 {
		t.Error("no thread_name metadata")
	}
	if !strings.Contains(buf.String(), "flush") {
		t.Error("flush instants missing from export")
	}
	// Spanning-tree collective events render as "coll"-category instants:
	// one tree hop and one fragment per node, addressed to the peer node.
	for _, want := range []string{"tree-hop→node0", "tree-hop→node1", "frag3→node0", "frag3→node1"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("collective event %q missing from Chrome export", want)
		}
	}
}

func TestAggregateRemapsPEs(t *testing.T) {
	g := Aggregate(buildReports())
	if g.TotalPEs != 4 {
		t.Fatalf("TotalPEs = %d", g.TotalPEs)
	}
	for gpe := 0; gpe < 4; gpe++ {
		if g.PE[gpe].EMs != 1 {
			t.Errorf("PE %d EMs = %d, want 1", gpe, g.PE[gpe].EMs)
		}
	}
	if g.CommBytes[0*4+3] != 4096 || g.CommBytes[2*4+1] != 4096 {
		t.Errorf("comm matrix not merged: %v", g.CommBytes)
	}
	found := false
	for _, st := range g.Methods {
		if st.Chare == "Block" && st.Method == "RecvGhost" {
			found = st.Count == 4
		}
	}
	if !found {
		t.Errorf("method stats = %+v, want Block.RecvGhost count 4", g.Methods)
	}
	var buf bytes.Buffer
	g.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"PE 0", "PE 3", "Block.RecvGhost", "wire bytes"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
