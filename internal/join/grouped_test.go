package join

import (
	"math/rand"
	"slices"
	"testing"

	"acache/internal/cost"
	"acache/internal/planner"
	"acache/internal/query"
	"acache/internal/stream"
	"acache/internal/tuple"
)

// starQuery builds the star R1(A,B,C) ⋈ R2(A,X) ⋈ R3(B,Y) ⋈ R4(C,Z): the hub
// R1 shares one attribute with each spoke. Every step of the hub's pipeline
// probes on a key the hub tuple carries, so all of them are keyFromRoot.
func starQuery(t *testing.T) (*query.Query, planner.Ordering) {
	t.Helper()
	q, err := query.New(
		[]*tuple.Schema{
			tuple.RelationSchema(0, "A", "B", "C"),
			tuple.RelationSchema(1, "A", "X"),
			tuple.RelationSchema(2, "B", "Y"),
			tuple.RelationSchema(3, "C", "Z"),
		},
		[]query.Pred{
			{Left: tuple.Attr{Rel: 0, Name: "A"}, Right: tuple.Attr{Rel: 1, Name: "A"}},
			{Left: tuple.Attr{Rel: 0, Name: "B"}, Right: tuple.Attr{Rel: 2, Name: "B"}},
			{Left: tuple.Attr{Rel: 0, Name: "C"}, Right: tuple.Attr{Rel: 3, Name: "C"}},
		},
	)
	if err != nil {
		t.Fatalf("query.New: %v", err)
	}
	return q, planner.Ordering{{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}}
}

// starRuns generates runs of one to five same-relation, same-operation
// updates over windows of about a dozen tuples; fill sets a new tuple's
// values. A quarter of the inserts repeat a live tuple exactly.
func starRuns(rng *rand.Rand, q *query.Query, count int, fill func(rel int, t tuple.Tuple)) [][]stream.Update {
	live := make([][]tuple.Tuple, q.N())
	var runs [][]stream.Update
	seq := uint64(0)
	for n := 0; n < count; {
		rel := rng.Intn(q.N())
		del := len(live[rel]) > 12 || len(live[rel]) > 6 && rng.Intn(3) == 0
		var run []stream.Update
		for k := 1 + rng.Intn(5); k > 0 && n < count; k-- {
			u := stream.Update{Op: stream.Insert, Rel: rel, Seq: seq}
			if del {
				if len(live[rel]) == 0 {
					break
				}
				i := rng.Intn(len(live[rel]))
				u.Op, u.Tuple = stream.Delete, live[rel][i]
				live[rel] = slices.Delete(live[rel], i, i+1)
			} else {
				u.Tuple = make(tuple.Tuple, q.Schema(rel).Len())
				fill(rel, u.Tuple)
				if rng.Intn(4) == 0 && len(live[rel]) > 0 { // an exact duplicate
					u.Tuple = live[rel][rng.Intn(len(live[rel]))]
				}
				live[rel] = append(live[rel], u.Tuple)
			}
			run = append(run, u)
			seq++
			n++
		}
		if len(run) > 0 {
			runs = append(runs, run)
		}
	}
	return runs
}

// perComposite clears keyFromRoot on every step of e, the maintenance
// mini-joins' included, so e probes once per composite: the reference the
// grouped kernel must be indistinguishable from.
func perComposite(e *Exec) {
	for _, p := range e.pipes {
		for _, st := range p.steps {
			st.keyFromRoot = false
		}
		for _, ops := range p.maint {
			for _, op := range ops {
				for _, st := range op.smSteps {
					st.keyFromRoot = false
				}
			}
		}
	}
}

// countProbes rebinds the spoke stores of e (every relation but the hub R1)
// to a meter of their own and returns it. A hub update charges a spoke store
// nothing but one IndexProbe per real probe, so over a hub update the meter
// moves by IndexProbe times the probes made.
func countProbes(e *Exec) *cost.Meter {
	m := &cost.Meter{}
	for rel := 1; rel < len(e.stores); rel++ {
		e.stores[rel].SetMeter(m)
	}
	return m
}

// TestGroupedProbesMatchPerComposite drives a star query through Process,
// ProcessProfiled and ProcessRun (with a self-maintained cache, whose
// maintenance mini-join sees one raw tuple per update of a run) and checks
// that probing a keyFromRoot step once per update changes nothing observable:
// outputs, the result multiset, meter charges per update and in total, and
// the profile's per-step inputs and units all equal a per-composite
// executor's. In the serial modes it also checks that each hub update
// probes every non-empty step's index exactly once, on twins of both
// executors whose spoke stores charge a probe-counting meter (the twins'
// per-step units leave the probes out, so e and ref keep every charge).
func TestGroupedProbesMatchPerComposite(t *testing.T) {
	for _, mode := range []string{"Process", "ProcessProfiled", "ProcessRun"} {
		t.Run(mode, func(t *testing.T) {
			q, ord := starQuery(t)
			build := func() (*Exec, *cost.Meter, *[]tuple.Tuple) {
				meter := &cost.Meter{}
				e, err := NewExec(q, ord, meter, Options{})
				if err != nil {
					t.Fatalf("NewExec: %v", err)
				}
				if mode == "ProcessRun" {
					// A self-maintained cache on {R1,R3} keyed by A in ΔR2's
					// pipeline: its maintenance joins each raw R1 update
					// with R3 on B, a key from R1's own schema.
					spec := &planner.Spec{Pipeline: 1, Start: 0, End: 1, Segment: []int{0, 2},
						KeyClasses: q.SharedClasses([]int{1}, []int{0, 2}), GC: true, SelfMaint: true}
					if err := e.AttachCache(spec, NewInstance(q, spec, 64, -1, meter)); err != nil {
						t.Fatalf("AttachCache: %v", err)
					}
				}
				return e, meter, collectOutputs(e)
			}
			e, meter, got := build()
			ref, refMeter, want := build()
			perComposite(ref)
			cnt, _, _ := build()
			refCnt, _, _ := build()
			perComposite(refCnt)
			probes, refProbes := countProbes(cnt), countProbes(refCnt)
			o := newOracle(q)

			hub := e.pipes[0]
			grouped, batched := 0, 0
			// Join keys range over 3 values and spoke payloads over 50, so
			// a spoke holds several tuples per key and a hub tuple's
			// partial results fan out before the next spoke.
			rng := rand.New(rand.NewSource(17))
			fill := func(rel int, tp tuple.Tuple) {
				for c := range tp {
					tp[c] = rng.Int63n(3)
				}
				if rel > 0 {
					tp[1] = rng.Int63n(50)
				}
			}
			for _, run := range starRuns(rng, q, 3000, fill) {
				*got, *want = (*got)[:0], (*want)[:0]
				var naive []tuple.Tuple
				for _, u := range run {
					naive = append(naive, o.Process(u)...)
				}
				if mode == "ProcessRun" && len(run) > 1 && e.Batchable(run[0].Rel) {
					batched++
					res, refRes := e.ProcessRun(run), ref.ProcessRun(run)
					if res != refRes {
						t.Fatalf("run at seq %d (R%d ×%d): %+v, per-composite %+v", run[0].Seq, run[0].Rel+1, len(run), res, refRes)
					}
				} else {
					for _, u := range run {
						before, refBefore := probes.Total(), refProbes.Total()
						var res, refRes Result
						var inputs []int
						if mode == "ProcessProfiled" {
							var prof, refProf Profile
							res, prof = e.ProcessProfiled(u)
							inputs = slices.Clone(prof.StepInputs)
							units := slices.Clone(prof.StepUnits)
							refRes, refProf = ref.ProcessProfiled(u)
							cnt.ProcessProfiled(u)
							refCnt.ProcessProfiled(u)
							if !slices.Equal(inputs, refProf.StepInputs) || !slices.Equal(units, refProf.StepUnits) {
								t.Fatalf("update %d: profile %v / %v, per-composite %v / %v",
									u.Seq, inputs, units, refProf.StepInputs, refProf.StepUnits)
							}
						} else {
							res, refRes = e.Process(u), ref.Process(u)
							if mode == "Process" {
								cnt.Process(u)
								refCnt.Process(u)
							}
							if u.Rel == 0 {
								for pos := range hub.steps {
									inputs = append(inputs, len(hub.arrivals[pos]))
								}
							}
						}
						if res != refRes {
							t.Fatalf("update %d %v: %+v, per-composite %+v", u.Seq, u, res, refRes)
						}
						if mode == "ProcessRun" || u.Rel != 0 {
							continue
						}
						// One real probe per non-empty step; the reference
						// pays one per composite.
						wantProbes, refWant := 0, 0
						for _, n := range inputs[:len(hub.steps)] {
							if n > 0 {
								wantProbes++
							}
							if n > 1 {
								grouped++
							}
							refWant += n
						}
						if d := (probes.Total() - before) / cost.IndexProbe; d != cost.Units(wantProbes) {
							t.Fatalf("hub update %d (step inputs %v): %d index probes, want %d", u.Seq, inputs, d, wantProbes)
						}
						if d := (refProbes.Total() - refBefore) / cost.IndexProbe; d != cost.Units(refWant) {
							t.Fatalf("hub update %d (step inputs %v): per-composite reference made %d index probes, want %d", u.Seq, inputs, d, refWant)
						}
					}
				}
				if !multisetEqual(multiset(*got), multiset(*want)) || !multisetEqual(multiset(*got), multiset(naive)) {
					t.Fatalf("run at seq %d: result multiset differs\ngot           %v\nper-composite %v\noracle        %v", run[0].Seq, *got, *want, naive)
				}
			}
			if meter.Total() != refMeter.Total() {
				t.Fatalf("meter total %d, per-composite %d", meter.Total(), refMeter.Total())
			}
			if mode == "ProcessRun" {
				if batched < 100 {
					t.Fatalf("only %d runs took ProcessRun", batched)
				}
			} else if grouped < 100 {
				t.Fatalf("only %d hub steps received more than one composite", grouped)
			}
		})
	}
}
