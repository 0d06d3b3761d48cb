package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span names. A span only ever wraps a call the harness itself makes.
const (
	spanAppend     = "acache.append"      // one request on the composed engine
	spanWindow     = "stream.window"      // SlidingWindow.AppendInto + clone
	spanProcess    = "core.process"       // core.Engine.Process, one per update
	spanEmit       = "emit"               // the harness's OnResult callback
	spanRoute      = "shard.route"        // ShardedEngine.AppendBatch
	spanFlush      = "shard.flush"        // ShardedEngine.Flush
	spanSync       = "durable.sync"       // Engine.SyncWAL
	spanCheckpoint = "durable.checkpoint" // Engine.SaveCheckpoint
	spanRecover    = "durable.recover"    // warm Query.BuildDurable
)

// sampleEvery is the request sampling rate of the traced run.
const sampleEvery = 64

// span is one timed interval; its ID is its index in the trace file.
type span struct {
	ID      int32  `json:"id"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"` // since the tracer was created
	End     int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`  // -1 for a root
	Request int64  `json:"request"` // spans of one request share it; -1 outside any
}

// tracer keeps spans in a preallocated buffer and writes them out at exit.
// When the buffer is full further spans are counted as dropped, never
// half-recorded: begin returns -1 and end(-1) does nothing.
type tracer struct {
	base    time.Time
	spans   []span
	dropped int
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, capacity)}
}

// room reports whether a whole request of up to n spans still fits.
func (t *tracer) room(n int) bool { return cap(t.spans)-len(t.spans) >= n }

func (t *tracer) begin(name string, parent int32, request int64) int32 {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Request: request})
	t.spans[id].Start = int64(time.Since(t.base))
	return id
}

func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.base))
	}
}

// record adds an already-timed root span (set-up steps timed by build).
func (t *tracer) record(name string, start time.Time, d time.Duration) {
	if id := t.begin(name, -1, -1); id >= 0 {
		t.spans[id].Start = int64(start.Sub(t.base))
		t.spans[id].End = t.spans[id].Start + int64(d)
	}
}

// spanCost measures what one begin/end pair costs, so self times can be
// corrected for the clock reads of child spans that fall inside a parent.
func spanCost() float64 {
	const n = 200_000
	t := newTracer(n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin(spanEmit, -1, -1))
	}
	return float64(time.Since(start)) / n
}

// traceFile is the JSON document written per workload.
type traceFile struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Host        host   `json:"host"`
	SampleEvery int    `json:"sample_every"`
	Dropped     int    `json:"dropped_spans"`
	Spans       []span `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	path := filepath.Join(dir, "trace-"+workload+".json")
	b, err := json.Marshal(traceFile{workload, seed, stampHost(), sampleEvery, t.dropped, t.spans})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}

// spanStats is what the per-layer metrics read from a trace: per span name,
// how many spans, their total duration, their total self time (duration minus
// the part covered by children, corrected for the children's clock reads) and
// the sorted durations.
type spanStats struct {
	count     int
	total     float64
	self      float64
	durations []int64
}

// analyze folds spans into per-name statistics. cost is the measured price of
// one begin/end pair: each child adds about that much to its parent's
// interval without belonging to the parent's own work.
func analyze(spans []span, cost float64) (map[string]*spanStats, error) {
	children := make([]float64, len(spans))
	nchild := make([]int, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent >= 0 {
			if int(s.Parent) >= len(spans) || s.Parent >= s.ID {
				return nil, fmt.Errorf("span %d (%s) has no parent %d before it", s.ID, s.Name, s.Parent)
			}
			children[s.Parent] += float64(s.End - s.Start)
			nchild[s.Parent]++
		}
	}
	out := map[string]*spanStats{}
	for i, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		d := float64(s.End - s.Start)
		if children[i] > d {
			return nil, fmt.Errorf("span %d (%s): children cover %.0f ns of %.0f", s.ID, s.Name, children[i], d)
		}
		st.count++
		st.total += d
		st.self += max(d-children[i]-float64(nchild[i])*cost, 0)
		st.durations = append(st.durations, s.End-s.Start)
	}
	return out, nil
}
