package minesweeper

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"minesweeper/internal/core"
)

// anytimeQuery is R(A,B) ⋈ S(B,C) over 600 shared B values, each with
// four A's and four C's (Z = 9 600), evaluated under the GAO [B A C] so
// both atoms lead with B; S also holds the odd B values R lacks, so
// Leapfrog seeks (its counted work) between the two. With constant, R
// carries a third column bound to the literal 7: the hidden constant
// then leads the evaluation order as a point bound, and a parallel run
// must cut B behind it.
func anytimeQuery(t *testing.T, constant bool) *Query {
	t.Helper()
	var r, s [][]int
	for b := 0; b < 1200; b += 2 {
		for i := 0; i < 4; i++ {
			a := []int{(b*7919 + i*104729) % 100003, b}
			if constant {
				a = append(a, 7)
			}
			r = append(r, a)
			s = append(s, []int{b, (b*6151 + i*7907) % 100019}, []int{b + 1, i})
		}
	}
	rv := []string{"A", "B"}
	if constant {
		rv = append(rv, "7")
	}
	q, err := NewQuery(
		Atom{Rel: rel(t, "R", len(rv), r), Vars: rv},
		Atom{Rel: rel(t, "S", 2, s), Vars: []string{"B", "C"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// anytimeCost is the engine's own work counter: probes for Minesweeper,
// index seeks for Leapfrog.
func anytimeCost(eng Engine, st Stats) int64 {
	if eng == EngineLeapfrog {
		return st.FindGaps
	}
	return st.ProbePoints
}

// TestParallelKeepsAnytimeContract: with Workers > 1 the engines that
// take range morsels still behave like a sequential stream — the same
// tuples in the same order, not one tuple yielded after the caller
// cancels from inside yield, and a limit-1 run paying for the morsels it
// waited on rather than for the whole join.
func TestParallelKeepsAnytimeContract(t *testing.T) {
	gao := []string{"B", "A", "C"}
	for _, constant := range []bool{false, true} {
		q := anytimeQuery(t, constant)
		for _, eng := range []Engine{EngineMinesweeper, EngineLeapfrog} {
			ref, err := Execute(q, &Options{Engine: eng, GAO: gao})
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.Tuples) != 9600 {
				t.Fatalf("constant=%v engine=%v: Z = %d, want 9600", constant, eng, len(ref.Tuples))
			}
			for _, w := range []int{1, 2, 4} {
				pq, err := q.Prepare(&Options{Engine: eng, GAO: gao, Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				full, err := pq.Execute()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(full.Tuples, ref.Tuples) {
					t.Fatalf("constant=%v engine=%v workers=%d: stream differs from the sequential run", constant, eng, w)
				}

				ctx, cancel := context.WithCancel(context.Background())
				yields := 0
				_, err = pq.StreamContext(ctx, func([]int) bool {
					yields++
					cancel()
					return true
				})
				cancel()
				if yields != 1 || !errors.Is(err, context.Canceled) {
					t.Errorf("constant=%v engine=%v workers=%d: %d yields after cancelling in the first (err %v), want none",
						constant, eng, w, yields-1, err)
				}

				lim, err := pq.ExecuteLimit(1)
				if err != nil {
					t.Fatal(err)
				}
				if got, all := anytimeCost(eng, lim.Stats), anytimeCost(eng, full.Stats); len(lim.Tuples) != 1 || 2*got > all {
					t.Errorf("constant=%v engine=%v workers=%d: limit-1 run cost %d of the full run's %d (%d tuples), want ≤ 50%%",
						constant, eng, w, got, all, len(lim.Tuples))
				}
			}
		}
	}
}

// TestParallelPanickingMorselIsAnError: a morsel whose engine run
// panics ends a prepared run with an error — after the tuples of the
// morsels before it, a prefix of the sequential stream — instead of
// taking the process down.
func TestParallelPanickingMorselIsAnError(t *testing.T) {
	gao := []string{"B", "A", "C"}
	q := anytimeQuery(t, false)
	for _, eng := range []Engine{EngineMinesweeper, EngineLeapfrog} {
		ref, err := Execute(q, &Options{Engine: eng, GAO: gao})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4} {
			pq, err := q.Prepare(&Options{Engine: eng, GAO: gao, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			run := pq.runner.Run
			var calls atomic.Int32
			pq.runner.Run = func(ctx context.Context, p *core.Problem, st *Stats, emit func([]int) bool) error {
				if calls.Add(1) == 2 {
					panic("boom")
				}
				return run(ctx, p, st, emit)
			}
			res, err := pq.Execute()
			if err == nil || !strings.Contains(err.Error(), "panicked: boom") {
				t.Fatalf("engine=%v workers=%d: err = %v, want the recovered panic", eng, w, err)
			}
			if n := len(res.Tuples); n >= len(ref.Tuples) || !slices.EqualFunc(res.Tuples, ref.Tuples[:n], slices.Equal) {
				t.Fatalf("engine=%v workers=%d: the %d tuples before the error are not a proper prefix of the stream", eng, w, n)
			}
		}
	}
}
