package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one interval recorded by the layer run: the benchmark's own files
// bracket every timed batch of calls into a layer (spans inside the program
// are a later issue). Spans of one probe share a request id. Times are
// nanoseconds since the log was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = no parent
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls,omitempty"` // calls into the layer the span covers
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) begin(name string, parent, req int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(l.t0))})
	return id
}

func (l *spanLog) end(id int, calls int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.spans[id-1]
	s.End = int64(time.Since(l.t0))
	s.Calls = calls
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	b, err := json.MarshalIndent(l.spans, "", " ")
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover (overlapping children count once;
// parts of a child outside the parent do not count).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}
