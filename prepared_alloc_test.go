package minesweeper

import "testing"

// The prepared-query warm path must run in a constant allocation budget:
// cached indexes are shared, the CDS and the outer algorithm's scratch
// come from pools, and output tuples are carved from flat blocks. The
// budgets below are deliberately tight — a handful of per-run fixtures
// (problem snapshot, result assembly, the emit closure) is all that is
// allowed; anything scaling with probes or constraints is a regression.
const (
	warmStreamBudget  = 8  // empty-result Stream: snapshot + closures
	warmExecuteBudget = 14 // empty-result Execute: + Result assembly
	warmOutputBudget  = 16 // 100-output Stream: + one tuple block
)

func preparedForAlloc(t *testing.T, rTuples, sTuples [][]int) *PreparedQuery {
	t.Helper()
	return preparedForAllocGAO(t, rTuples, sTuples, []string{"A", "B", "C"})
}

func preparedForAllocGAO(t *testing.T, rTuples, sTuples [][]int, gao []string) *PreparedQuery {
	t.Helper()
	r, err := NewRelation("R", 2, rTuples)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewRelation("S", 2, sTuples)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuery(
		Atom{Rel: r, Vars: []string{"A", "B"}},
		Atom{Rel: s, Vars: []string{"B", "C"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := q.Prepare(&Options{GAO: gao})
	if err != nil {
		t.Fatal(err)
	}
	// Warm every pool (CDS tree, run scratch, tuple blocks).
	for i := 0; i < 3; i++ {
		if _, err := pq.Execute(); err != nil {
			t.Fatal(err)
		}
	}
	return pq
}

func TestPreparedWarmPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; budgets measured without -race")
	}
	// Disjoint B values: the join is empty, so the measurement isolates
	// the fixed per-run overhead.
	pq := preparedForAlloc(t, [][]int{{1, 2}, {2, 3}}, [][]int{{9, 9}})

	if got := testing.AllocsPerRun(100, func() {
		if _, err := pq.Stream(func([]int) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}); got > warmStreamBudget {
		t.Errorf("warm Stream: %v allocs/run, budget %d", got, warmStreamBudget)
	}

	if got := testing.AllocsPerRun(100, func() {
		if _, err := pq.Execute(); err != nil {
			t.Fatal(err)
		}
	}); got > warmExecuteBudget {
		t.Errorf("warm Execute: %v allocs/run, budget %d", got, warmExecuteBudget)
	}
}

func TestPreparedWarmPathOutputAllocScaling(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; budgets measured without -race")
	}
	// 10×10 outputs through the shared B value: output tuples must be
	// block-allocated, not one allocation each — the budget stays far
	// below the 100+ of a per-tuple scheme.
	var rT, sT [][]int
	for i := 0; i < 10; i++ {
		rT = append(rT, []int{i, 0})
		sT = append(sT, []int{0, i})
	}
	pq := preparedForAlloc(t, rT, sT)
	n := 0
	got := testing.AllocsPerRun(100, func() {
		n = 0
		if _, err := pq.Stream(func([]int) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
	})
	if n != 100 {
		t.Fatalf("join produced %d tuples, want 100", n)
	}
	if got > warmOutputBudget {
		t.Errorf("warm 100-output Stream: %v allocs/run, budget %d", got, warmOutputBudget)
	}
}

func TestPreparedWarmPathShapedAllocScaling(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; budgets measured without -race")
	}
	// The GAO [B A C] is not the output order [A B C], so every tuple is
	// shaped: the engine's tuples come from blocks, and shaping permutes
	// each in place. A run then costs one engine block per 128 tuples on
	// top of the fixed per-run fixtures.
	const z = 512
	var rT, sT [][]int
	for i := 0; i < 32; i++ {
		if i < z/32 {
			rT = append(rT, []int{i, 0})
		}
		sT = append(sT, []int{0, i})
	}
	pq := preparedForAllocGAO(t, rT, sT, []string{"B", "A", "C"})
	n := 0
	got := testing.AllocsPerRun(50, func() {
		n = 0
		if _, err := pq.Stream(func([]int) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
	})
	if n != z {
		t.Fatalf("join produced %d tuples, want %d", n, z)
	}
	if budget := z/128 + warmOutputBudget; got > float64(budget) {
		t.Errorf("warm shaped %d-output Stream: %v allocs/run, budget %d", z, got, budget)
	}
}
