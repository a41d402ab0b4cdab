package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// rootSpan names the span around the production call of an operation; every
// layer span of the same operation descends from it.
const rootSpan = "root"

// span is one timed call: the production call of an operation (rootSpan) or
// one layer stage the bench replayed on the same input right before it.
// Spans of one operation share Op. Times are nanoseconds since the
// recorder's start.
type span struct {
	Workload string `json:"workload"`
	Op       int64  `json:"op"`
	Name     string `json:"name"`
	Parent   string `json:"parent,omitempty"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	// Units is the work the span covered (tuples, bytes, events), for
	// per-unit metrics; 0 when the span is a single call.
	Units int64 `json:"units,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// recorder keeps the spans of one workload in memory.
type recorder struct {
	workload string
	t0       time.Time
	// nextOp hands out operation ids.
	nextOp atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

// add records one finished span.
func (r *recorder) add(op int64, name, parent string, start, end time.Time, units int64) {
	s := span{Workload: r.workload, Op: op, Name: name, Parent: parent,
		StartNs: int64(start.Sub(r.t0)), EndNs: int64(end.Sub(r.t0)), Units: units}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// spanStats summarises the spans of one traced pass.
type spanStats struct {
	// durs and perUnit hold, per span name, each span's duration in
	// nanoseconds and (where it covered units) its nanoseconds per unit.
	durs    map[string][]float64
	perUnit map[string][]float64
	// selfNs sums, per span name, the self time: a span's duration minus
	// the durations of its direct children. The layer spans are replays run
	// one after another outside the root's own interval, so "covered" means
	// summed child durations; where the production stages overlap on
	// several cores the children can exceed the root and its self time goes
	// negative.
	selfNs map[string]float64
	rootNs float64
	ops    int
}

// analyse computes per-name durations and self times.
func analyse(spans []span) spanStats {
	st := spanStats{durs: map[string][]float64{}, perUnit: map[string][]float64{}, selfNs: map[string]float64{}}
	for _, s := range spans {
		d := float64(s.dur())
		st.durs[s.Name] = append(st.durs[s.Name], d)
		if s.Units > 0 {
			st.perUnit[s.Name] = append(st.perUnit[s.Name], d/float64(s.Units))
		}
		st.selfNs[s.Name] += d
		if s.Parent != "" {
			st.selfNs[s.Parent] -= d
		}
		if s.Name == rootSpan {
			st.ops++
			st.rootNs += d
		}
	}
	return st
}

// traceFileOps bounds how many operations of each workload the trace file
// keeps; the aggregates always use every span.
const traceFileOps = 1000

// writeTrace writes spans as JSON lines, one span per line.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if s.Op >= traceFileOps {
			continue
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}
