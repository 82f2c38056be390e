// Benchmarks of the public API and of substrate pieces that are not
// workloads of the E-suite. The tracked suite — every experiment's cases
// behind one generic loop, with the certificate counters reported per
// operation — lives in internal/esuite:
//
//	go test -run '^$' -bench Suite -benchmem ./internal/esuite
//
// Run the ones here with:
//
//	go test -run '^$' -bench . -benchmem .
package minesweeper

import (
	"context"
	"testing"

	"minesweeper/internal/baseline"
	"minesweeper/internal/core"
	"minesweeper/internal/dataset"
	"minesweeper/internal/ordered"
	"minesweeper/internal/reltree"
)

// --- E3: Appendix J — Minesweeper vs WCOJ baselines -------------------

func benchmarkAppendixJ(b *testing.B, M int, run func(*core.Problem, []string, []core.AtomSpec) error) {
	gao, atoms := dataset.AppendixJPath(5, M)
	p, err := core.NewProblem(gao, atoms)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(p, gao, atoms); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendixJNPRR(b *testing.B) {
	benchmarkAppendixJ(b, 64, func(p *core.Problem, _ []string, _ []core.AtomSpec) error {
		_, err := baseline.NPRRAll(p, nil)
		return err
	})
}

func BenchmarkAppendixJYannakakis(b *testing.B) {
	benchmarkAppendixJ(b, 64, func(_ *core.Problem, gao []string, atoms []core.AtomSpec) error {
		_, err := baseline.Yannakakis(gao, atoms, nil)
		return err
	})
}

// --- E6: Theorem 5.4 triangle ------------------------------------------

func BenchmarkTriangleLeapfrog(b *testing.B) {
	r, s, t := dataset.TriangleHard(128)
	p, err := core.NewProblem([]string{"A", "B", "C"}, []core.AtomSpec{
		{Name: "R", Attrs: []string{"A", "B"}, Tuples: r},
		{Name: "S", Attrs: []string{"B", "C"}, Tuples: s},
		{Name: "T", Attrs: []string{"A", "C"}, Tuples: t},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.LeapfrogAll(p, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate micro-benchmarks ------------------------------------------

func BenchmarkRangeSetNext(b *testing.B) {
	rs := ordered.NewRangeSet()
	for j := 0; j < 10000; j++ {
		rs.Insert(j*10, j*10+5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.Next(i % 100000)
	}
}

func BenchmarkFindGap(b *testing.B) {
	tuples := make([][]int, 100000)
	for i := range tuples {
		tuples[i] = []int{i * 2}
	}
	tr, err := reltree.New("R", 1, tuples)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.FindGap(nil, (i*7)%200000)
	}
}

func BenchmarkDyadicInsert(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dt := ordered.NewDyadicTree(1024)
		for j := 0; j < 200; j++ {
			dt.InsertAtKey(j%1024, j*5, j*5+20)
		}
	}
}

// --- End-to-end through the public API ----------------------------------

func BenchmarkExecuteMinesweeperTwoPath(b *testing.B) {
	g := dataset.PowerLawGraph(2000, 6, false, 3)
	e, err := NewRelation("E", 2, g.Edges)
	if err != nil {
		b.Fatal(err)
	}
	q, err := NewQuery(
		Atom{Rel: e, Vars: []string{"A", "B"}},
		Atom{Rel: e, Vars: []string{"B", "C"}},
	)
	if err != nil {
		b.Fatal(err)
	}
	u, err := NewRelation("U", 1, dataset.SampleVertices(2000, 0.01, 9))
	if err != nil {
		b.Fatal(err)
	}
	q2, err := NewQuery(
		Atom{Rel: e, Vars: []string{"A", "B"}},
		Atom{Rel: e, Vars: []string{"B", "C"}},
		Atom{Rel: u, Vars: []string{"A"}},
		Atom{Rel: u, Vars: []string{"C"}},
	)
	if err != nil {
		b.Fatal(err)
	}
	_ = q
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(q2, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecuteLimitAnytime(b *testing.B) {
	g := dataset.PowerLawGraph(3000, 8, false, 12)
	e, err := NewRelation("E", 2, g.Edges)
	if err != nil {
		b.Fatal(err)
	}
	q, err := NewQuery(
		Atom{Rel: e, Vars: []string{"A", "B"}},
		Atom{Rel: e, Vars: []string{"B", "C"}},
	)
	if err != nil {
		b.Fatal(err)
	}
	gao := []string{"A", "B", "C"}
	b.Run("limit10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ExecuteLimit(q, &Options{GAO: gao}, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Execute(q, &Options{GAO: gao}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPreparedVsCold measures what Prepare buys a served workload:
// "cold" rebuilds every GAO-permuted index per execution (the
// pre-refactor behaviour of Execute), "prepared" builds them once and
// re-executes against the cache. The prepared sub-benchmark also asserts
// that re-execution performs zero reltree builds.
func BenchmarkPreparedVsCold(b *testing.B) {
	g := dataset.PowerLawGraph(2000, 6, false, 3)
	e, err := NewRelation("E", 2, g.Edges)
	if err != nil {
		b.Fatal(err)
	}
	q, err := NewQuery(
		Atom{Rel: e, Vars: []string{"A", "B"}},
		Atom{Rel: e, Vars: []string{"B", "C"}},
	)
	if err != nil {
		b.Fatal(err)
	}
	gao := []string{"A", "B", "C"}
	specs := q.atomSpecs()
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := core.NewProblem(gao, specs)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.MinesweeperAll(p, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		b.ReportAllocs()
		pq, err := q.Prepare(&Options{GAO: gao})
		if err != nil {
			b.Fatal(err)
		}
		before := reltree.Builds()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pq.Execute(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if got := reltree.Builds(); got != before {
			b.Fatalf("prepared re-execution rebuilt %d indexes", got-before)
		}
	})
	// With a limit, the anytime engine does O(k) probes — so on the cold
	// path the index build dominates, and the prepared path skips it.
	b.Run("cold-limit10", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := core.NewProblem(gao, specs)
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			if err := core.MinesweeperStreamContext(context.Background(), p, nil, func([]int) bool {
				n++
				return n < 10
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared-limit10", func(b *testing.B) {
		b.ReportAllocs()
		pq, err := q.Prepare(&Options{GAO: gao})
		if err != nil {
			b.Fatal(err)
		}
		before := reltree.Builds()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pq.ExecuteLimit(10); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if got := reltree.Builds(); got != before {
			b.Fatalf("prepared limit re-execution rebuilt %d indexes", got-before)
		}
	})
}
