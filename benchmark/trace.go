package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one traced call: a public entry point of the program, timed
// in wall-clock nanoseconds since the run started.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`     // index of the op in its workload's sequence
	Parent   int    `json:"parent"` // id of the enclosing span; 0 at top level
	ID       int    `json:"id"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// layerTotals accumulates every span of one name.
type layerTotals struct {
	calls  int
	ns     int64
	allocs uint64
	bytes  uint64
}

func (l *layerTotals) meanMS() float64     { return float64(l.ns) / float64(l.calls) / 1e6 }
func (l *layerTotals) meanAllocs() float64 { return float64(l.allocs) / float64(l.calls) }
func (l *layerTotals) meanKB() float64     { return float64(l.bytes) / 1024 / float64(l.calls) }

// tracer records spans in memory and totals them per name. A nil
// *tracer is valid and records nothing, so ops run the same code traced
// or not.
type tracer struct {
	t0       time.Time
	workload string
	op       int
	open     []int // ids of the spans enclosing the current call
	spans    []span
	totals   map[string]*layerTotals
	counts   map[string]int64 // simulated counters summed over the traced ops
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), totals: make(map[string]*layerTotals), counts: make(map[string]int64)}
}

// count adds n to a simulated counter.
func (t *tracer) count(name string, n int64) {
	if t != nil {
		t.counts[name] += n
	}
}

// do runs f inside a span called name.
func (t *tracer) do(name string, f func() error) error {
	if t == nil {
		return f()
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, Op: t.op, Parent: parent, ID: id})
	t.open = append(t.open, id)
	objs0, bytes0 := heapCounters()
	start := time.Now()
	err := f()
	end := time.Now()
	objs1, bytes1 := heapCounters()
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id-1]
	s.Start, s.End = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()
	tot := t.totals[name]
	if tot == nil {
		tot = &layerTotals{}
		t.totals[name] = tot
	}
	tot.calls++
	tot.ns += s.End - s.Start
	tot.allocs += objs1 - objs0
	tot.bytes += bytes1 - bytes0
	return err
}

// total returns the totals of one span name (zero if it never ran).
func (t *tracer) total(name string) *layerTotals {
	if tot := t.totals[name]; tot != nil {
		return tot
	}
	return &layerTotals{}
}

// write stores every span as one JSON document.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
