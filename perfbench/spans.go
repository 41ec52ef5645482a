package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"time"
)

// tracer keeps spans in memory around the benchmark's calls into each
// layer and writes them out when the run ends. A nil *tracer records
// nothing, so the untraced path runs the same code without spans.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indexes of the spans begun and not yet ended
	rt    []metrics.Sample
}

// span is one timed call. Parent indexes the enclosing span (-1 for a
// root); a span's self time is its duration minus its children's.
type span struct {
	Name   string   `json:"name"`
	Parent int      `json:"parent"`
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
	RT     *rtDelta `json:"runtime,omitempty"`
}

// rtDelta is the change in the Go runtime's counters over a span, read
// from runtime/metrics at its boundaries.
type rtDelta struct {
	Allocs   float64 `json:"allocs"`
	Bytes    float64 `json:"alloc_bytes"`
	GCCPU    float64 `json:"gc_cpu_s"`
	TotalCPU float64 `json:"total_cpu_s"`
	GCCycles float64 `json:"gc_cycles"`
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	for _, n := range rtNames {
		t.rt = append(t.rt, metrics.Sample{Name: n})
	}
	return t
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, len(t.spans)-1)
}

// beginRT begins a span that also records the runtime counters' change.
func (t *tracer) beginRT(name string) {
	if t == nil {
		return
	}
	t.begin(name)
	before := t.readRT()
	t.spans[len(t.spans)-1].RT = &before
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[i]
	if s.RT != nil {
		after := t.readRT()
		s.RT = &rtDelta{
			Allocs:   after.Allocs - s.RT.Allocs,
			Bytes:    after.Bytes - s.RT.Bytes,
			GCCPU:    after.GCCPU - s.RT.GCCPU,
			TotalCPU: after.TotalCPU - s.RT.TotalCPU,
			GCCycles: after.GCCycles - s.RT.GCCycles,
		}
	}
	s.End = time.Since(t.t0).Nanoseconds()
}

func (t *tracer) readRT() rtDelta {
	metrics.Read(t.rt)
	v := make([]float64, len(t.rt))
	for i, s := range t.rt {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s.Value.Float64()
		}
	}
	return rtDelta{Allocs: v[0], Bytes: v[1], GCCPU: v[2], TotalCPU: v[3], GCCycles: v[4]}
}

// named returns the spans called name, in the order they began.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of the spans called name, in seconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, float64(s.End-s.Start)/1e9)
	}
	return out
}

// selfTimes sums each span name's self time in seconds.
func (t *tracer) selfTimes() map[string]float64 {
	self := make(map[string]float64)
	for _, s := range t.spans {
		self[s.Name] += float64(s.End-s.Start) / 1e9
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= float64(s.End-s.Start) / 1e9
		}
	}
	return self
}

// write stores every span and the per-name self times as JSON.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	b, err := json.MarshalIndent(struct {
		SelfSeconds map[string]float64 `json:"self_s"`
		Spans       []span             `json:"spans"`
	}{self, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
