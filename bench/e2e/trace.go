package main

// In-memory spans recorded by the harness around each call into a layer
// of the product (spans inside the product are a later issue). A span's
// name is "<layer>.<operation>"; the spans of one repetition share a
// root. A layer's self time is its span minus the part of that interval
// its children cover.

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// layer is the part of a span name before the first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer collects spans. A nil tracer records nothing, so the untraced
// run takes the same code path minus the clock reads. Only the goroutine
// that drives the workload records spans (concurrent readers are timed,
// not spanned), so there is no lock.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// noSpan as a parent suspends tracing for the calls below it: the
// traced run passes it to the repetitions it leaves untraced.
const noSpan = -1

// start opens a span under parent (0 opens a root) and returns its id.
func (t *tracer) start(parent int, name string, rep int) int {
	if t == nil || parent == noSpan {
		return noSpan
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Workload: t.workload, Rep: rep, StartNS: now,
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	t.spans[id-1].EndNS = time.Since(t.epoch).Nanoseconds()
}

// in runs f inside a span.
func (t *tracer) in(parent int, name string, rep int, f func()) {
	id := t.start(parent, name, rep)
	f()
	t.end(id)
}

// solo runs f inside a span that is the only child of its own root.
func (t *tracer) solo(rootName, name string, rep int, f func()) {
	root := t.start(0, rootName, rep)
	t.in(root, name, rep, f)
	t.end(root)
}

// durations returns the seconds of every span with the given name, in
// recording order.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}

// sumByRep returns, per repetition in ascending order, the summed
// seconds of the spans named name (or, with a trailing dot, named with
// that prefix) under a root named rootName.
func (t *tracer) sumByRep(rootName, name string) []float64 {
	sums := map[int]float64{}
	for _, s := range t.spans {
		hit := s.Name == name || strings.HasSuffix(name, ".") && strings.HasPrefix(s.Name, name)
		if hit && t.rootOf(s).Name == rootName {
			sums[s.Rep] += s.seconds()
		}
	}
	reps := make([]int, 0, len(sums))
	for r := range sums {
		reps = append(reps, r)
	}
	sort.Ints(reps)
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = sums[r]
	}
	return out
}

func (t *tracer) rootOf(s span) span {
	for s.Parent != 0 {
		s = t.spans[s.Parent-1]
	}
	return s
}

// selfTimes returns each span's self time in seconds, indexed like
// t.spans: its duration minus the union of its children's intervals.
func (t *tracer) selfTimes() []float64 {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		covered, hi := int64(0), s.StartNS
		for _, k := range kids {
			lo, end := max(k.StartNS, hi), min(k.EndNS, s.EndNS)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] = float64(s.EndNS-s.StartNS-covered) / 1e9
	}
	return self
}

// rootShare describes how one root span's time divides among layers.
type rootShare struct {
	Root    span
	Seconds float64
	ByLayer map[string]float64 // self seconds per layer, the harness included
}

// shares attributes every root span's duration to layers by self time.
// The root's own self time (the harness's glue between calls) is
// reported under the layer "harness".
func (t *tracer) shares() []rootShare {
	self := t.selfTimes()
	byRoot := map[int]*rootShare{}
	var order []int
	for i, s := range t.spans {
		r := t.rootOf(s)
		rs := byRoot[r.ID]
		if rs == nil {
			rs = &rootShare{Root: r, Seconds: r.seconds(), ByLayer: map[string]float64{}}
			byRoot[r.ID] = rs
			order = append(order, r.ID)
		}
		layer := s.layer()
		if s.Parent == 0 {
			layer = "harness"
		}
		rs.ByLayer[layer] += self[i]
	}
	out := make([]rootShare, len(order))
	for i, id := range order {
		out[i] = *byRoot[id]
	}
	return out
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
