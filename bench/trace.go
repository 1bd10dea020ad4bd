package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is the benchmark's own record of one call into a layer. Spans
// wrap exported calls from outside; nothing inside the program under
// test is instrumented.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span in this tracer, -1 for a root
	Op     int32  `json:"op"`     // spans of one operation share it
	// Calls is how many back-to-back calls the span covers: the probes of
	// nanosecond-scale functions time a batch, since a clock read costs
	// as much as the call.
	Calls int32 `json:"calls"`
}

// tracer holds the spans of one goroutine in preallocated memory.
type tracer struct {
	epoch   time.Time
	spans   []span
	dropped int
}

func newTracer(epoch time.Time, capacity int) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index, or -1 when the tracer is nil
// (tracing off) or full.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: int32(parent), Op: int32(op), Calls: 1,
		Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.endCalls(i, 1) }

// endCalls closes a span that covered n back-to-back calls.
func (t *tracer) endCalls(i, n int) {
	if i >= 0 {
		t.spans[i].End = int64(time.Since(t.epoch))
		t.spans[i].Calls = int32(n)
	}
}

// spanStat is the per-call duration of one span name over a set of
// tracers.
type spanStat struct {
	p50ns, p99ns float64
	totalNs      int64
	n            int
}

func spanStats(tracers []*tracer) map[string]spanStat {
	by := map[string][]float64{}
	tot := map[string]int64{}
	for _, t := range tracers {
		if t == nil {
			continue
		}
		for _, s := range t.spans {
			if s.End == 0 {
				continue
			}
			by[s.Name] = append(by[s.Name], float64(s.End-s.Start)/float64(s.Calls))
			tot[s.Name] += s.End - s.Start
		}
	}
	out := map[string]spanStat{}
	for name, d := range by {
		sort.Float64s(d)
		out[name] = spanStat{
			p50ns:   percentile(d, 0.50),
			p99ns:   percentile(d, 0.99),
			totalNs: tot[name],
			n:       len(d),
		}
	}
	return out
}

// traceFile is what a traced run leaves in the output directory.
type traceFile struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Dropped  int      `json:"spans_dropped"`
	Tracers  [][]span `json:"tracers"` // one span list per goroutine; Parent indexes within it
}

func writeTrace(dir, workload string, seed uint64, tracers []*tracer) (spans, dropped int, err error) {
	tf := traceFile{Workload: workload, Seed: seed}
	for _, t := range tracers {
		if t == nil {
			continue
		}
		tf.Tracers = append(tf.Tracers, t.spans)
		tf.Dropped += t.dropped
		spans += len(t.spans)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return spans, tf.Dropped, err
	}
	b, err := json.Marshal(&tf)
	if err != nil {
		return spans, tf.Dropped, err
	}
	return spans, tf.Dropped, os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
