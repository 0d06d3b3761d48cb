package main

import (
	"fmt"
	"strings"

	"acache/internal/core"
	"acache/internal/query"
	"acache/internal/stream"
	"acache/internal/tuple"
)

// The traced run may only put spans around calls the harness itself makes,
// so it cannot look inside acache.Engine.Append. composed is that method
// rebuilt from the exported parts it is made of — query.New, core.NewEngine
// with the configuration Options.coreConfig produces, one
// stream.SlidingWindow per relation, core.Engine.Process per window update —
// so that the harness owns every layer boundary. trace.composed_vs_api
// checks, on every run, that the mirror still costs what the real method
// costs and produces the same results.

// attrOf parses a "Rel.Attr" reference against w's declaration order.
func (w workload) attrOf(ref string) (tuple.Attr, error) {
	rel, attr, ok := strings.Cut(ref, ".")
	if ok {
		for i, r := range w.rels {
			if r.name == rel {
				return tuple.Attr{Rel: i, Name: attr}, nil
			}
		}
	}
	return tuple.Attr{}, fmt.Errorf("bad attribute reference %q", ref)
}

// internalQuery is w's query in the form the internal packages take.
func (w workload) internalQuery() (*query.Query, error) {
	schemas := make([]*tuple.Schema, len(w.rels))
	for i, r := range w.rels {
		schemas[i] = tuple.RelationSchema(i, r.attrs...)
	}
	var preds []query.Pred
	for _, j := range w.joins {
		l, err := w.attrOf(j[0])
		if err != nil {
			return nil, err
		}
		r, err := w.attrOf(j[1])
		if err != nil {
			return nil, err
		}
		preds = append(preds, query.Pred{Left: l, Right: r})
	}
	return query.New(schemas, preds)
}

// scanOnly is Options.NoIndex in internal form.
func (w workload) scanOnly() ([]tuple.Attr, error) {
	var out []tuple.Attr
	for _, ref := range w.noIndex {
		a, err := w.attrOf(ref)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// coreConfig mirrors acache.Options.coreConfig for the options the
// workloads use: unlimited memory is -1, global caches get quota 6.
func (w workload) coreConfig(seed int64, disableCaching bool) (core.Config, error) {
	scan, err := w.scanOnly()
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		DisableCaching: disableCaching,
		Seed:           mixSeed(seed),
		MemoryBudget:   -1,
		GCQuota:        6,
		ScanOnly:       scan,
	}, nil
}

type composed struct {
	indexOf map[string]int
	arity   []int
	core    *core.Engine
	windows []*stream.SlidingWindow
	upsBuf  []stream.Update
	seq     uint64
	out     *sink

	tr      *tracer // nil on the untraced mirror
	process int32   // open core.process span of a sampled request, else -1
	request int64
}

// newComposed builds the mirror of w.query().Build(opts). With a tracer the
// engine records spans for one request in sampleEvery.
func newComposed(w workload, seed int64, disableCaching bool, tr *tracer) (*composed, error) {
	q, err := w.internalQuery()
	if err != nil {
		return nil, err
	}
	cfg, err := w.coreConfig(seed, disableCaching)
	if err != nil {
		return nil, err
	}
	en, err := core.NewEngine(q, nil, cfg)
	if err != nil {
		return nil, err
	}
	c := &composed{indexOf: map[string]int{}, core: en, out: &sink{}, tr: tr, process: -1}
	for i, r := range w.rels {
		c.indexOf[r.name] = i
		c.arity = append(c.arity, len(r.attrs))
		c.windows = append(c.windows, stream.NewSlidingWindow(r.window))
	}
	// Mirror of acache.Engine.OnResult: the registered callback is reached
	// through one wrapping closure.
	f := c.out.add
	if tr != nil {
		f = c.tracedEmit
	}
	en.OnResult(func(ins bool, vals []tuple.Value) { f(ins, vals) })
	return c, nil
}

func (c *composed) close() { c.core.Close() }

// relIndex mirrors acache.Query.relIndex: the public API addresses relations
// by name, and the lookup is part of what an append costs.
func (c *composed) relIndex(name string) int {
	idx, ok := c.indexOf[name]
	if !ok {
		panic(fmt.Sprintf("composed engine: unknown relation %q", name))
	}
	return idx
}

// windowUpdates mirrors acache.Engine.windowUpdates for count windows.
func (c *composed) windowUpdates(idx int, values []int64) []stream.Update {
	if len(values) != c.arity[idx] {
		panic(fmt.Sprintf("composed engine: relation %d has %d attributes, got %d values", idx, c.arity[idx], len(values)))
	}
	ups := c.windows[idx].AppendInto(tuple.Tuple(values).Clone(), c.upsBuf[:0])
	c.upsBuf = ups[:0]
	for i := range ups {
		ups[i].Rel = idx
	}
	return ups
}

// append mirrors acache.Engine.Append.
func (c *composed) append(rel string, values ...int64) int {
	idx := c.relIndex(rel)
	ups := c.windowUpdates(idx, values)
	total := 0
	for _, u := range ups {
		c.seq++
		u.Seq = c.seq
		total += c.core.Process(u)
	}
	return total
}

// appendTraced is append with a span at every layer boundary when request is
// sampled, and exactly append otherwise.
func (c *composed) appendTraced(request int64, rel string, values ...int64) int {
	if request%sampleEvery != 0 || !c.tr.room(1<<12) {
		return c.append(rel, values...)
	}
	tr := c.tr
	c.request = request
	root := tr.begin(spanAppend, -1, request)
	idx := c.relIndex(rel)
	win := tr.begin(spanWindow, root, request)
	ups := c.windowUpdates(idx, values)
	tr.end(win)
	total := 0
	for _, u := range ups {
		c.seq++
		u.Seq = c.seq
		c.process = tr.begin(spanProcess, root, request)
		total += c.core.Process(u)
		tr.end(c.process)
	}
	c.process = -1
	tr.end(root)
	return total
}

func (c *composed) tracedEmit(ins bool, vals []int64) {
	if c.process < 0 {
		c.out.add(ins, vals)
		return
	}
	id := c.tr.begin(spanEmit, c.process, c.request)
	c.out.add(ins, vals)
	c.tr.end(id)
}
