package core_test

import (
	"runtime"
	"testing"

	"minesweeper/internal/certificate"
	"minesweeper/internal/core"
	"minesweeper/internal/dataset"
)

// TestStatsAreAFunctionOfTheProblem is the regression test for
// cds.Tree.Reset leaking box-index state: a run draws its CDS from a
// per-arity pool, so a recycled tree may last have served a different
// query. Every counter must depend on the problem alone — not on what
// the pooled tree saw before, nor on whether a GC emptied the pool.
func TestStatsAreAFunctionOfTheProblem(t *testing.T) {
	newProblem := func(gao []string, atoms []core.AtomSpec) *core.Problem {
		p, err := core.NewProblem(gao, atoms)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Two six-attribute problems with different box shapes.
	path := newProblem(dataset.AppendixJPath(5, 16))
	clique := newProblem(dataset.CliqueInstance(5, 4))
	if len(path.GAO) != len(clique.GAO) {
		t.Fatalf("fixtures must share an arity to share a pool: %d vs %d", len(path.GAO), len(clique.GAO))
	}
	run := func(p *core.Problem) certificate.Stats {
		var s certificate.Stats
		if _, err := core.MinesweeperAll(p, &s); err != nil {
			t.Fatal(err)
		}
		return s
	}
	wantPath, wantClique := run(path), run(clique)
	if wantPath.Boxes == 0 {
		t.Fatal("fixture emits no boxes: the test would not exercise the box index")
	}
	check := func(round string) {
		for i := 0; i < 4; i++ {
			if got := run(path); got != wantPath {
				t.Fatalf("%s, path run %d: stats %+v, first run %+v", round, i, got, wantPath)
			}
			if got := run(clique); got != wantClique {
				t.Fatalf("%s, clique run %d: stats %+v, first run %+v", round, i, got, wantClique)
			}
		}
	}
	check("warm pool")
	runtime.GC()
	runtime.GC() // two cycles drop a sync.Pool's victim cache too
	check("after GC")
}
