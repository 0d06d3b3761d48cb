package xjoin

import (
	"math/rand"
	"testing"

	"acache/internal/cost"
	"acache/internal/query"
	"acache/internal/stream"
	"acache/internal/tuple"
)

func BenchmarkXJoinProcess(b *testing.B) {
	q, err := benchClique4()
	if err != nil {
		b.Fatal(err)
	}
	x := New(q, leftDeep(0, 1, 2, 3), &cost.Meter{})
	rng := rand.New(rand.NewSource(1))
	live := make([][]tuple.Tuple, 4)
	var ups []stream.Update
	for len(ups) < 4096 {
		rel := rng.Intn(4)
		if len(live[rel]) > 50 && rng.Intn(2) == 0 {
			j := rng.Intn(len(live[rel]))
			tp := live[rel][j]
			live[rel] = append(live[rel][:j:j], live[rel][j+1:]...)
			ups = append(ups, stream.Update{Op: stream.Delete, Rel: rel, Tuple: tp})
			continue
		}
		tp := tuple.Tuple{rng.Int63n(128)}
		live[rel] = append(live[rel], tp)
		ups = append(ups, stream.Update{Op: stream.Insert, Rel: rel, Tuple: tp})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%len(ups) == 0 {
			b.StopTimer()
			x = New(q, leftDeep(0, 1, 2, 3), &cost.Meter{})
			b.StartTimer()
		}
		x.Process(ups[i%len(ups)])
	}
}

func BenchmarkEnumerate5(b *testing.B) {
	rels := []int{0, 1, 2, 3, 4}
	for i := 0; i < b.N; i++ {
		if got := len(Enumerate(rels)); got != 105 {
			b.Fatalf("trees = %d", got)
		}
	}
}

func benchClique4() (*query.Query, error) {
	schemas := make([]*tuple.Schema, 4)
	var preds []query.Pred
	for i := 0; i < 4; i++ {
		schemas[i] = tuple.RelationSchema(i, "A")
		if i > 0 {
			preds = append(preds, query.Pred{
				Left:  tuple.Attr{Rel: 0, Name: "A"},
				Right: tuple.Attr{Rel: i, Name: "A"},
			})
		}
	}
	return query.New(schemas, preds)
}
