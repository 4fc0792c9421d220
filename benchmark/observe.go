package main

import (
	"sort"
	"time"

	"charmgo/internal/trace"
)

// observation is what the runtime's public observers (core.Config.Trace,
// core.Config.Metrics / ServiceConfig.Metrics) recorded during a layer run.
type observation struct {
	traced          bool
	busyFrac        float64 // entry-method time ÷ span of the trace ring, mean over PEs
	idleFrac        float64 // measured idle time ÷ span
	queueWaitP50us  float64 // mailbox wait of received messages
	flushes         int64   // aggregator batches sent
	flushedMsgs     int64   // messages those batches carried
	mailboxDepthP99 float64
	shed            int64
}

// observer accumulates trace-ring statistics over the traced windows of one
// system. The ring keeps the last 65 536 events per PE, so fractions are
// taken over the span the ring still covers, not over the whole window.
type observer struct {
	busy, idle, wait []float64
}

func (o *observer) addTrace(trs ...*trace.Tracer) {
	var busy, idle, span time.Duration
	var waits []float64
	for _, tr := range trs {
		if tr != nil {
			b, i, s, w := ringTotals(tr.Snapshot())
			busy, idle, span, waits = busy+b, idle+i, span+s, append(waits, w...)
		}
	}
	if span <= 0 {
		return
	}
	o.busy = append(o.busy, float64(busy)/float64(span))
	o.idle = append(o.idle, float64(idle)/float64(span))
	if len(waits) > 0 {
		sort.Float64s(waits)
		o.wait = append(o.wait, quantileSorted(waits, 0.5))
	}
}

// ringTotals sums one tracer's ring: entry-method and idle time, the span
// each PE's events cover, and the mailbox waits in µs.
func ringTotals(events []trace.Event) (busy, idle, span time.Duration, waits []float64) {
	type acc struct{ busy, idle, first, last time.Duration }
	per := map[int]*acc{}
	for _, e := range events {
		a := per[e.PE]
		if a == nil {
			a = &acc{first: e.At}
			per[e.PE] = a
		}
		end := e.At
		switch e.Kind {
		case trace.EvEM:
			a.busy += e.Dur
			end += e.Dur
		case trace.EvIdle:
			a.idle += e.Dur
			end += e.Dur
		case trace.EvRecv: // Dur is the mailbox wait, not a span
			waits = append(waits, float64(e.Dur)/1e3)
		}
		if end > a.last {
			a.last = end
		}
	}
	for pe, a := range per {
		if pe < 0 {
			continue // events with no PE (transport frames)
		}
		busy += a.busy
		idle += a.idle
		span += a.last - a.first
	}
	return busy, idle, span, waits
}

func (o *observer) result() observation {
	if len(o.busy) == 0 {
		return observation{}
	}
	ob := observation{traced: true, busyFrac: median(o.busy), idleFrac: median(o.idle)}
	if len(o.wait) > 0 {
		ob.queueWaitP50us = median(o.wait)
	}
	return ob
}
