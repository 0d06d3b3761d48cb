package join

import (
	"math/rand"
	"slices"
	"testing"

	"acache/internal/cost"
	"acache/internal/planner"
	"acache/internal/query"
	"acache/internal/tuple"
)

// scanStarQuery builds the star R1(A,B,C) ⋈ R2(A,X) ⋈ R3(B,B2,Y) ⋈ R4(C,Z)
// with R1.B = R3.B = R3.B2 and the theta R2.X < R4.Z, every join attribute
// index-free (Figure 10's dropped index, on every relation): each join is a
// nested loop, a step joining R3 on B compares two of its columns, and a
// step joining R4 after R2 filters its matches by the theta. In the initial
// ordering no step compares on R1.C (ΔR4's pipeline meets R1 after R2, so
// R1's first check is A); scanReorder then puts R1 first in ΔR4's pipeline.
func scanStarQuery(t *testing.T) (*query.Query, planner.Ordering, Options) {
	t.Helper()
	q, err := query.NewWithThetas(
		[]*tuple.Schema{
			tuple.RelationSchema(0, "A", "B", "C"),
			tuple.RelationSchema(1, "A", "X"),
			tuple.RelationSchema(2, "B", "B2", "Y"),
			tuple.RelationSchema(3, "C", "Z"),
		},
		[]query.Pred{
			{Left: tuple.Attr{Rel: 0, Name: "A"}, Right: tuple.Attr{Rel: 1, Name: "A"}},
			{Left: tuple.Attr{Rel: 0, Name: "B"}, Right: tuple.Attr{Rel: 2, Name: "B"}},
			{Left: tuple.Attr{Rel: 0, Name: "B"}, Right: tuple.Attr{Rel: 2, Name: "B2"}},
			{Left: tuple.Attr{Rel: 0, Name: "C"}, Right: tuple.Attr{Rel: 3, Name: "C"}},
		},
		[]query.ThetaPred{{Left: tuple.Attr{Rel: 1, Name: "X"}, Op: query.Lt, Right: tuple.Attr{Rel: 3, Name: "Z"}}},
	)
	if err != nil {
		t.Fatalf("query.New: %v", err)
	}
	var scanOnly []tuple.Attr
	for rel := 0; rel < q.N(); rel++ {
		for i := 0; i < q.Schema(rel).Len(); i++ {
			if a := q.Schema(rel).Col(i); a.Name != "X" && a.Name != "Y" && a.Name != "Z" {
				scanOnly = append(scanOnly, a)
			}
		}
	}
	return q, planner.Ordering{{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {1, 0, 2}}, Options{ScanOnly: scanOnly}
}

// scanReorder is the mid-stream reorder: ΔR4's pipeline meets R1 first.
var scanReorder = []int{0, 1, 2}

// fullScans clears denseScan on every step of e, the maintenance mini-joins'
// included, so each of e's nested loops scans every tuple through
// Store.Scan: the reference the dense kernel must be indistinguishable from.
func fullScans(e *Exec) {
	for _, p := range e.pipes {
		for _, st := range p.steps {
			st.denseScan = false
		}
		for _, ops := range p.maint {
			for _, op := range ops {
				for _, st := range op.smSteps {
					st.denseScan = false
				}
			}
		}
	}
}

// denseColumns returns the (relation, column) pairs e's pipeline steps keep
// dense scan columns for.
func denseColumns(e *Exec) map[[2]int]bool {
	cols := make(map[[2]int]bool)
	for _, p := range e.pipes {
		for _, st := range p.steps {
			if st.denseScan {
				cols[[2]int{st.rel, st.scanChecks[0][1]}] = true
			}
		}
	}
	return cols
}

// TestDenseScanMatchesFullScan drives a scan-only star query through Process,
// ProcessProfiled and ProcessRun, with a self-maintained cache whose lookup
// runs miss segments and whose maintenance mini-joins scan too, and reorders
// a pipeline mid-stream so that a dense column is back-filled over populated
// stores. Outputs, the result multiset, meter charges per update and in
// total, and the profile's per-step inputs and units must all equal those of
// an executor that scans every tuple, and the results the oracle's.
func TestDenseScanMatchesFullScan(t *testing.T) {
	for _, mode := range []string{"Process", "ProcessProfiled", "ProcessRun"} {
		t.Run(mode, func(t *testing.T) {
			q, ord, opts := scanStarQuery(t)
			build := func() (*Exec, *cost.Meter) {
				meter := &cost.Meter{}
				e, err := NewExec(q, ord, meter, opts)
				if err != nil {
					t.Fatalf("NewExec: %v", err)
				}
				// A self-maintained cache on {R1,R2} keyed by B in ΔR3's
				// pipeline; its maintenance joins R1 and R2 on A. Not one
				// holding R3: a mini-join rooted at an R3 update, like R3's
				// own pipeline, never compares R3.B2 with R3.B, and the cache
				// would carry such a join into pipelines that do.
				spec := &planner.Spec{Pipeline: 2, Start: 0, End: 1, Segment: []int{0, 1},
					KeyClasses: q.SharedClasses([]int{2}, []int{0, 1}), GC: true, SelfMaint: true}
				if err := e.AttachCache(spec, NewInstance(q, spec, 64, -1, meter)); err != nil {
					t.Fatalf("AttachCache: %v", err)
				}
				return e, meter
			}
			e, meter := build()
			ref, refMeter := build()
			fullScans(ref)
			got, want := collectOutputs(e), collectOutputs(ref)
			o := newOracle(q)

			twoChecks, thetas := false, false
			for _, p := range e.pipes {
				for _, st := range p.steps {
					twoChecks = twoChecks || st.denseScan && len(st.scanChecks) > 1
					thetas = thetas || st.denseScan && len(st.thetas) > 0
				}
			}
			if !twoChecks || !thetas {
				t.Fatalf("no dense scan step with two checks (%v) or a theta (%v)", twoChecks, thetas)
			}
			before := denseColumns(e)

			rng := rand.New(rand.NewSource(23))
			fill := func(rel int, tp tuple.Tuple) {
				for c := range tp {
					tp[c] = rng.Int63n(3)
				}
				switch rel {
				case 1, 3: // X, Z: the theta passes about half the pairs
					tp[1] = rng.Int63n(10)
				case 2: // B2 mostly equals B, so R3 tuples join on both
					if rng.Intn(3) > 0 {
						tp[1] = tp[0]
					}
				}
			}
			runs := starRuns(rng, q, 3000, fill)
			batched := 0
			for i, run := range runs {
				if i == len(runs)/2 {
					for _, x := range []*Exec{e, ref} {
						if err := x.SetOrdering(3, scanReorder); err != nil {
							t.Fatalf("SetOrdering: %v", err)
						}
					}
					fullScans(ref)
					// The rebuilt pipeline lost its output taps; put them back.
					got, want = tapOutput(e, 3, got), tapOutput(ref, 3, want)
					added := 0
					for c := range denseColumns(e) {
						if !before[c] {
							added++
						}
					}
					if added == 0 || e.Store(0).Len() == 0 {
						t.Fatalf("reorder back-filled %d new dense columns over %d R1 tuples", added, e.Store(0).Len())
					}
				}
				*got, *want = (*got)[:0], (*want)[:0]
				var naive []tuple.Tuple
				for _, u := range run {
					naive = append(naive, o.Process(u)...)
				}
				if mode == "ProcessRun" && len(run) > 1 && e.Batchable(run[0].Rel) {
					batched++
					if res, refRes := e.ProcessRun(run), ref.ProcessRun(run); res != refRes {
						t.Fatalf("run at seq %d (R%d ×%d): %+v, full scans %+v", run[0].Seq, run[0].Rel+1, len(run), res, refRes)
					}
				} else {
					for _, u := range run {
						var res, refRes Result
						if mode == "ProcessProfiled" {
							var prof, refProf Profile
							res, prof = e.ProcessProfiled(u)
							inputs, units := slices.Clone(prof.StepInputs), slices.Clone(prof.StepUnits)
							refRes, refProf = ref.ProcessProfiled(u)
							if !slices.Equal(inputs, refProf.StepInputs) || !slices.Equal(units, refProf.StepUnits) {
								t.Fatalf("update %d: profile %v / %v, full scans %v / %v",
									u.Seq, inputs, units, refProf.StepInputs, refProf.StepUnits)
							}
						} else {
							res, refRes = e.Process(u), ref.Process(u)
						}
						if res != refRes {
							t.Fatalf("update %d %v: %+v, full scans %+v", u.Seq, u, res, refRes)
						}
					}
				}
				if !multisetEqual(multiset(*got), multiset(*want)) || !multisetEqual(multiset(*got), multiset(naive)) {
					t.Fatalf("run at seq %d: result multiset differs\ngot        %v\nfull scans %v\noracle     %v", run[0].Seq, *got, *want, naive)
				}
			}
			if meter.Total() != refMeter.Total() {
				t.Fatalf("meter total %d, full scans %d", meter.Total(), refMeter.Total())
			}
			if mode == "ProcessRun" && batched < 100 {
				t.Fatalf("only %d runs took ProcessRun", batched)
			}
		})
	}
}
