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

// scanStarQuery builds the star R1(A,B,C,D) ⋈ R2(A,X) ⋈ R3(B,D,Y) ⋈ R4(C,Z)
// with R1.B = R3.B, R1.D = R3.D and the theta R2.X < R4.Z, every join
// attribute index-free (Figure 10's dropped index, on every relation): each
// join is a nested loop, a step joining R1 and R3 compares on two shared
// classes, B and D, and a step joining R4 after R2 filters its matches by
// the theta — in ΔR4's pipeline R2 comes first, a cross join.
func scanStarQuery(t *testing.T) (*query.Query, planner.Ordering, Options) {
	t.Helper()
	q, err := query.NewWithThetas(
		[]*tuple.Schema{
			tuple.RelationSchema(0, "A", "B", "C", "D"),
			tuple.RelationSchema(1, "A", "X"),
			tuple.RelationSchema(2, "B", "D", "Y"),
			tuple.RelationSchema(3, "C", "Z"),
		},
		[]query.Pred{
			{Left: tuple.Attr{Rel: 0, Name: "A"}, Right: tuple.Attr{Rel: 1, Name: "A"}},
			{Left: tuple.Attr{Rel: 0, Name: "B"}, Right: tuple.Attr{Rel: 2, Name: "B"}},
			{Left: tuple.Attr{Rel: 0, Name: "D"}, Right: tuple.Attr{Rel: 2, Name: "D"}},
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

// TestDenseScanMatchesFullScan drives a scan-only star query through Process,
// ProcessProfiled and ProcessRun, with a self-maintained cache whose lookup
// runs miss segments and whose maintenance mini-joins scan too. Outputs, the
// result multiset, meter charges per update and in total, and the profile's
// per-step inputs and units must all equal those of an executor that scans
// every tuple, and the results the oracle's. (TestScanEqMatchesScan covers a
// dense column back-filled over a populated store.)
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
				// A self-maintained cache on {R1,R3} keyed by A in ΔR2's
				// pipeline; its maintenance mini-joins compare R1 and R3 on
				// both B and D.
				spec := &planner.Spec{Pipeline: 1, Start: 0, End: 1, Segment: []int{0, 2},
					KeyClasses: q.SharedClasses([]int{1}, []int{0, 2}), GC: true, SelfMaint: true}
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

			rng := rand.New(rand.NewSource(23))
			fill := func(rel int, tp tuple.Tuple) {
				for c := range tp {
					tp[c] = rng.Int63n(3)
				}
				switch rel {
				case 1, 3: // X, Z: the theta passes about half the pairs
					tp[1] = rng.Int63n(10)
				}
			}
			runs := starRuns(rng, q, 3000, fill)
			batched := 0
			for _, run := range runs {
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
