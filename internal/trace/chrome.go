package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
// loadable in Perfetto or chrome://tracing. pid is the node, tid the global
// PE; ts/dur are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

const usPerNs = 1e-3

// WriteChrome renders one or more node reports as a Chrome trace-event JSON
// object ({"traceEvents": [...]}) with one track per global PE (plus one
// "runtime" track per node for aggregator/transport activity). Timestamps
// from different nodes are aligned on the earliest report's start clock.
func WriteChrome(w io.Writer, reports ...Report) error {
	if len(reports) == 0 {
		return fmt.Errorf("trace: no reports to export")
	}
	sorted := append([]Report(nil), reports...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Node < sorted[j].Node })

	// Align clocks: each node's Event.At is relative to its own tracer
	// start; shift onto the earliest start across the job.
	t0 := sorted[0].StartUnixNano
	for _, r := range sorted {
		if r.StartUnixNano < t0 {
			t0 = r.StartUnixNano
		}
	}

	var evs []chromeEvent
	meta := func(pid, tid int, name string, sortIdx int) {
		evs = append(evs,
			chromeEvent{Name: "thread_name", Ph: "M", PID: pid, TID: tid,
				Args: map[string]any{"name": name}},
			chromeEvent{Name: "thread_sort_index", Ph: "M", PID: pid, TID: tid,
				Args: map[string]any{"sort_index": sortIdx}})
	}

	for _, r := range sorted {
		shift := float64(r.StartUnixNano-t0) * usPerNs
		evs = append(evs, chromeEvent{Name: "process_name", Ph: "M", PID: r.Node,
			Args: map[string]any{"name": fmt.Sprintf("node %d", r.Node)}})
		for pe := 0; pe < r.NumPEs; pe++ {
			gpe := r.BasePE + pe
			meta(r.Node, gpe, fmt.Sprintf("PE %d", gpe), gpe)
		}
		// runtime track (aggregator flushes, transport frames): tid beyond
		// any PE so it sorts last within the node.
		rtTID := r.TotalPEs + r.Node
		if r.TotalPEs == 0 {
			rtTID = r.BasePE + r.NumPEs
		}
		meta(r.Node, rtTID, fmt.Sprintf("node %d runtime", r.Node), 1<<20+r.Node)

		for _, e := range r.Events {
			tid := rtTID
			if e.PE >= 0 && e.PE < r.NumPEs {
				tid = r.BasePE + e.PE
			}
			ts := shift + float64(e.At)*usPerNs
			ce := chromeEvent{PID: r.Node, TID: tid, TS: ts}
			switch e.Kind {
			case EvEM:
				ce.Ph, ce.Cat = "X", "em"
				ce.Name = e.Chare + "." + e.Method
				ce.Dur = float64(e.Dur) * usPerNs
			case EvIdle:
				ce.Ph, ce.Cat, ce.Name = "X", "idle", "(idle)"
				ce.Dur = float64(e.Dur) * usPerNs
			case EvRecv:
				// render the queue wait as a span ending at the dequeue
				ce.Ph, ce.Cat, ce.Name = "i", "recv", "recv "+e.Method
				ce.S = "t"
				ce.Args = map[string]any{"queue_wait_us": float64(e.Dur) * usPerNs}
			case EvSend:
				ce.Ph, ce.Cat, ce.Name, ce.S = "i", "send", "send "+e.Method, "t"
				if e.Bytes > 0 || e.Dest != 0 {
					ce.Args = map[string]any{"bytes": e.Bytes, "dest_pe": e.Dest}
				}
			case EvFlush:
				ce.Ph, ce.Cat, ce.S = "i", "agg", "p"
				ce.Name = fmt.Sprintf("flush→node%d", e.Dest)
				ce.Args = map[string]any{"bytes": e.Bytes, "msgs": e.N, "by": e.Method}
			case EvFrameOut, EvFrameIn:
				ce.Ph, ce.Cat, ce.S = "i", "net", "p"
				dir := "frame←node"
				if e.Kind == EvFrameOut {
					dir = "frame→node"
				}
				ce.Name = fmt.Sprintf("%s%d", dir, e.Dest)
				ce.Args = map[string]any{"bytes": e.Bytes}
			case EvHeartbeatMiss:
				ce.Ph, ce.Cat, ce.S = "i", "ft", "g"
				ce.Name = fmt.Sprintf("hb-miss node%d", e.Dest)
			case EvNodeDeath:
				ce.Ph, ce.Cat, ce.S = "i", "ft", "g"
				ce.Name = fmt.Sprintf("node-death node%d", e.Dest)
			case EvRecovery:
				ce.Ph, ce.Cat = "X", "ft"
				ce.Name = fmt.Sprintf("recovery epoch %d", e.N)
				ce.Dur = float64(e.Dur) * usPerNs
			case EvTreeHop:
				ce.Ph, ce.Cat, ce.S = "i", "coll", "p"
				ce.Name = fmt.Sprintf("tree-hop→node%d", e.Dest)
				ce.Args = map[string]any{"n": e.N}
			case EvFrag:
				ce.Ph, ce.Cat, ce.S = "i", "coll", "p"
				ce.Name = fmt.Sprintf("frag%d→node%d", e.N, e.Dest)
				ce.Args = map[string]any{"bytes": e.Bytes}
			default:
				ce.Ph, ce.Cat, ce.S = "i", e.Kind.String(), "t"
				ce.Name = e.Kind.String()
				if e.Chare != "" {
					ce.Name += " " + e.Chare
				}
				if e.N != 0 {
					ce.Args = map[string]any{"n": e.N}
				}
			}
			evs = append(evs, ce)
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
	})
}
