package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// layer's public function. Parent is the span that caused it (-1 for an
// op's root); spans of one operation share Op.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder, or
// one switched off, records nothing, so the same workload code runs in
// the untraced and the traced run.
type recorder struct {
	mu    sync.Mutex
	on    bool
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) enable(on bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.on = on
	r.mu.Unlock()
}

// begin opens a span and returns its id, or -1 when not recording.
func (r *recorder) begin(name string, parent int32, op int64) int32 {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return -1
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return id
}

func (r *recorder) end(id int32) {
	if id < 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// spanCtx is a position in the span tree: where a callee's spans hang.
// A nil *spanCtx records nothing.
type spanCtx struct {
	rec    *recorder
	parent int32
	op     int64
}

// span opens a child span and returns the position inside it and the
// function that closes it.
func (c *spanCtx) span(name string) (*spanCtx, func()) {
	if c == nil {
		return nil, func() {}
	}
	id := c.rec.begin(name, c.parent, c.op)
	if id < 0 {
		return nil, func() {}
	}
	return &spanCtx{rec: c.rec, parent: id, op: c.op}, func() { c.rec.end(id) }
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its child spans cover. spans is a
// whole recording: span i has ID i. Children
// that run in parallel overlap, so coverage is the union of the child
// intervals clipped to the parent, never their sum.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
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
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// layerTotals sums self time (ns) and call counts by span name.
type layerTotal struct {
	SelfNS int64
	Calls  int
}

// layerTotals takes spans with their self times (a matching sub-slice of
// selfTimes' result over the whole recording).
func layerTotals(spans []span, self []int64) map[string]layerTotal {
	out := make(map[string]layerTotal)
	for i, s := range spans {
		t := out[s.Name]
		t.SelfNS += self[i]
		t.Calls++
		out[s.Name] = t
	}
	return out
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Env   environment `json:"env"`
	Spans []span      `json:"spans"`
}

func writeTrace(dir, workload string, env environment, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(traceFile{Env: env, Spans: spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
