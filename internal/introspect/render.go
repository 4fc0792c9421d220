package introspect

import (
	"fmt"
	"sort"
	"strings"
)

// RenderOptions tunes the terminal rendering of a ClusterSnapshot.
type RenderOptions struct {
	// TopK bounds the hottest-chares table (0 = 10).
	TopK int
	// BarWidth is the utilization bar width in cells (0 = 30).
	BarWidth int
	// Prev, when non-nil, is the previously rendered snapshot; the comm
	// matrix is shown as deltas against it (bytes moved since last frame).
	Prev *ClusterSnapshot
}

// Render draws an htop-style textual view of a cluster snapshot: per-PE
// utilization bars and mailbox depths, per-node send rates, the job-wide
// top-K hottest chare elements, and the PE×PE comm-matrix delta since the
// previous frame. `charmgo top` repaints this at the sample interval.
func Render(s ClusterSnapshot, opt RenderOptions) string {
	if opt.TopK <= 0 {
		opt.TopK = 10
	}
	if opt.BarWidth <= 0 {
		opt.BarWidth = 30
	}
	var b strings.Builder
	fmt.Fprintf(&b, "charmgo cluster: %d nodes, %d PEs, sample interval %s\n",
		s.Nodes, s.TotalPEs, s.SampleInterval)

	var hot []HotElem
	hotType := map[int]string{} // index into hot -> chare type
	for _, nv := range s.Node {
		status := ""
		switch {
		case nv.Dead:
			status = "  [DEAD]"
		case nv.Missing:
			status = "  [no sample yet]"
		case nv.Stale:
			status = fmt.Sprintf("  [STALE %.0fms]", nv.AgeMillis)
		}
		fmt.Fprintf(&b, "node %d%s  sends local=%d wire=%d backstop-flushes=%d",
			nv.Node, status, nv.SendsLocal, nv.SendsWire, nv.Backstops)
		if d := sumU64(nv.TraceDrops); d > 0 {
			fmt.Fprintf(&b, "  trace-drops=%d", d)
		}
		b.WriteByte('\n')
		if a := nv.Admission; a != nil {
			fmt.Fprintf(&b, "  admission shed=%d delayed=%d  mbox depth p50/p99 %.0f/%.0f (%d obs)\n",
				a.Rejected, a.Delayed, a.DepthP50, a.DepthP99, a.DepthCount)
		}
		if nv.Dead || nv.Missing {
			continue
		}
		for _, pe := range nv.PEs {
			fmt.Fprintf(&b, "  PE %-3d %s %5.1f%%  mbox %-5d ems %d\n",
				pe.PE, bar(pe.Util, opt.BarWidth), pe.Util*100, pe.MailboxDepth, pe.TotalEMs)
		}
		for _, cs := range nv.Colls {
			for _, h := range cs.Hot {
				hotType[len(hot)] = cs.Type
				hot = append(hot, h)
			}
		}
	}

	if len(hot) > 0 {
		type rankedElem struct {
			HotElem
			typ string
		}
		ranked := make([]rankedElem, len(hot))
		for i, h := range hot {
			ranked[i] = rankedElem{HotElem: h, typ: hotType[i]}
		}
		sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].LoadMillis > ranked[j].LoadMillis })
		if len(ranked) > opt.TopK {
			ranked = ranked[:opt.TopK]
		}
		fmt.Fprintf(&b, "hottest chares (measured load since last LB round):\n")
		fmt.Fprintf(&b, "  %-24s %-10s %6s %12s\n", "chare", "index", "pe", "load")
		for _, h := range ranked {
			fmt.Fprintf(&b, "  %-24s %-10s %6d %10.3fms\n",
				h.typ, fmt.Sprint(h.Index), h.PE, h.LoadMillis)
		}
	}
	renderCommDelta(&b, s, opt.Prev)
	return b.String()
}

// renderCommDelta prints the top PE→PE wire-byte flows since the previous
// frame (or cumulative when prev is nil). Rows come from each node's own
// source rows, so the union covers the whole matrix.
func renderCommDelta(b *strings.Builder, s ClusterSnapshot, prev *ClusterSnapshot) {
	cur := commMatrix(s)
	if cur == nil {
		return
	}
	n := s.TotalPEs
	label := "cumulative"
	if prev != nil {
		if old := commMatrix(*prev); old != nil && len(old) == len(cur) {
			for i := range cur {
				cur[i] -= old[i]
			}
			label = "since last frame"
		}
	}
	type flow struct {
		src, dst int
		bytes    int64
	}
	var flows []flow
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if v := cur[i*n+j]; v > 0 {
				flows = append(flows, flow{i, j, v})
			}
		}
	}
	if len(flows) == 0 {
		return
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i].bytes > flows[j].bytes })
	if len(flows) > 8 {
		flows = flows[:8]
	}
	fmt.Fprintf(b, "top wire flows (%s):\n", label)
	for _, f := range flows {
		fmt.Fprintf(b, "  PE %d → PE %d: %s\n", f.src, f.dst, fmtBytes(f.bytes))
	}
}

// commMatrix merges each node's source rows into one TotalPEs×TotalPEs
// matrix; nil when no node shipped comm rows (tracing off).
func commMatrix(s ClusterSnapshot) []int64 {
	n := s.TotalPEs
	if n <= 0 {
		return nil
	}
	var out []int64
	for _, nv := range s.Node {
		rows := len(nv.PEs)
		if nv.CommBytes == nil || len(nv.CommBytes) != rows*n {
			continue
		}
		if out == nil {
			out = make([]int64, n*n)
		}
		for r := 0; r < rows; r++ {
			src := nv.BasePE + r
			if src >= n {
				break
			}
			copy(out[src*n:(src+1)*n], nv.CommBytes[r*n:(r+1)*n])
		}
	}
	return out
}

func bar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	fill := int(frac*float64(width) + 0.5)
	return "[" + strings.Repeat("|", fill) + strings.Repeat(" ", width-fill) + "]"
}

func sumU64(xs []uint64) uint64 {
	var s uint64
	for _, x := range xs {
		s += x
	}
	return s
}

func fmtBytes(v int64) string {
	switch {
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(v)/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(v)/(1<<10))
	}
	return fmt.Sprintf("%dB", v)
}
