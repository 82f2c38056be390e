package engine

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"minesweeper/internal/certificate"
	"minesweeper/internal/core"
)

// collect runs p through the range-morsel executor and gathers the
// stream.
func collect(t *testing.T, run RunFunc, workers int, p *core.Problem, stats *certificate.Stats) [][]int {
	t.Helper()
	var out [][]int
	err := Parallel(Engine{IndexOnly: true, Run: run}, workers)(context.Background(), p.Snapshot(), stats, func(tu []int) bool {
		out = append(out, tu)
		return true
	})
	if err != nil {
		t.Fatalf("workers %d: %v", workers, err)
	}
	return out
}

func triangleProblem(t *testing.T, r, s, ty [][]int) *core.Problem {
	t.Helper()
	p, err := core.TriangleProblem(r, s, ty)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newProblem(t *testing.T, gao []string, atoms []core.AtomSpec) *core.Problem {
	t.Helper()
	p, err := core.NewProblem(gao, atoms)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTriangleParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 25; trial++ {
		dom := 3 + rng.Intn(10)
		mk := func() [][]int {
			var out [][]int
			for i := 0; i < rng.Intn(40); i++ {
				out = append(out, []int{rng.Intn(dom), rng.Intn(dom)})
			}
			return out
		}
		r, s, ty := mk(), mk(), mk()
		seq, err := core.Triangle(r, s, ty, nil)
		if err != nil {
			t.Fatal(err)
		}
		slices.SortFunc(seq, slices.Compare)
		p := triangleProblem(t, r, s, ty)
		for _, workers := range []int{1, 2, 3, 8, 100} {
			par := collect(t, core.TriangleRun, workers, p, nil)
			if len(seq) == 0 && len(par) == 0 {
				continue
			}
			if !reflect.DeepEqual(par, seq) {
				t.Fatalf("trial %d workers %d:\npar %v\nseq %v", trial, workers, par, seq)
			}
		}
	}
}

func TestTriangleParallelEmpty(t *testing.T) {
	if out := collect(t, core.TriangleRun, 4, triangleProblem(t, nil, nil, nil), nil); len(out) != 0 {
		t.Fatalf("got %v", out)
	}
	if out := collect(t, core.TriangleRun, 4, triangleProblem(t, [][]int{{1, 2}}, nil, nil), nil); len(out) != 0 {
		t.Fatalf("got %v", out)
	}
}

func TestTriangleParallelStatsMerged(t *testing.T) {
	var r, s, ty [][]int
	for i := 0; i < 30; i++ {
		r = append(r, []int{i, (i + 1) % 30})
		s = append(s, []int{i, (i + 2) % 30})
		ty = append(ty, []int{i, (i + 3) % 30})
	}
	var stats certificate.Stats
	collect(t, core.TriangleRun, 4, triangleProblem(t, r, s, ty), &stats)
	if stats.FindGaps == 0 || stats.ProbePoints == 0 {
		t.Fatalf("stats not merged: %+v", stats)
	}
}

func TestTriangleParallelDefaultsToSequential(t *testing.T) {
	edges := [][]int{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {0, 2}, {2, 0}}
	for _, w := range []int{0, -5, 1} {
		if out := collect(t, core.TriangleRun, w, triangleProblem(t, edges, edges, edges), nil); len(out) != 6 {
			t.Fatalf("workers=%d: got %d triangles", w, len(out))
		}
	}
}

func TestMinesweeperParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	gao := []string{"A", "B", "C"}
	for trial := 0; trial < 20; trial++ {
		dom := 3 + rng.Intn(8)
		mk := func(name string, attrs []string) core.AtomSpec {
			var tuples [][]int
			for i := 0; i < rng.Intn(30); i++ {
				tup := make([]int, len(attrs))
				for j := range tup {
					tup[j] = rng.Intn(dom)
				}
				tuples = append(tuples, tup)
			}
			return core.AtomSpec{Name: name, Attrs: attrs, Tuples: tuples}
		}
		p := newProblem(t, gao, []core.AtomSpec{
			mk("R", []string{"A", "B"}),
			mk("S", []string{"B", "C"}),
			mk("T", []string{"A", "C"}),
		})
		seq := collect(t, core.MinesweeperStreamContext, 1, p, nil)
		for _, workers := range []int{2, 4, 50} {
			par := collect(t, core.MinesweeperStreamContext, workers, p, nil)
			if len(seq) == 0 && len(par) == 0 {
				continue
			}
			if !reflect.DeepEqual(par, seq) {
				t.Fatalf("trial %d workers %d:\npar %v\nseq %v", trial, workers, par, seq)
			}
		}
	}
}

func TestMinesweeperParallelSharedAtoms(t *testing.T) {
	// Atoms without the first GAO attribute are shared across morsels.
	p := newProblem(t, []string{"A", "B"}, []core.AtomSpec{
		{Name: "R", Attrs: []string{"A", "B"}, Tuples: [][]int{{1, 5}, {2, 6}, {3, 5}, {9, 6}}},
		{Name: "U", Attrs: []string{"B"}, Tuples: [][]int{{5}, {6}}},
	})
	seq := collect(t, core.MinesweeperStreamContext, 1, p, nil)
	par := collect(t, core.MinesweeperStreamContext, 3, p, nil)
	if !reflect.DeepEqual(par, seq) {
		t.Fatalf("par %v vs seq %v", par, seq)
	}
	if len(seq) != 4 {
		t.Fatalf("expected 4 tuples, got %v", seq)
	}
}

func TestMinesweeperParallelEmptyFirstAttr(t *testing.T) {
	p := newProblem(t, []string{"A", "B"}, []core.AtomSpec{
		{Name: "R", Attrs: []string{"A", "B"}},
		{Name: "U", Attrs: []string{"B"}, Tuples: [][]int{{5}}},
	})
	if out := collect(t, core.MinesweeperStreamContext, 4, p, nil); len(out) != 0 {
		t.Fatalf("got %v", out)
	}
}

// TestMinesweeperParallelBoxStatsMerged: morsel stats — including the
// box counters — must be summed into the caller's receiver. The
// clustered band input guarantees every morsel emits boxes and serves
// probe advances from them.
func TestMinesweeperParallelBoxStatsMerged(t *testing.T) {
	var r, s [][]int
	for c := 0; c < 4; c++ {
		base := c << 16
		for i := 0; i < 64; i++ {
			x := base + i
			r = append(r, []int{x, 0}, []int{x, 1})
			s = append(s, []int{x, 10}, []int{x, 11})
		}
	}
	p := newProblem(t, []string{"X", "Y"}, []core.AtomSpec{
		{Name: "R", Attrs: []string{"X", "Y"}, Tuples: r},
		{Name: "S", Attrs: []string{"X", "Y"}, Tuples: s},
	})
	var seq certificate.Stats
	collect(t, core.MinesweeperStreamContext, 1, p, &seq)
	if seq.Boxes == 0 || seq.BoxSkips == 0 {
		t.Fatalf("sequential run has no box activity: %+v", seq)
	}
	for _, workers := range []int{2, 4} {
		var par certificate.Stats
		if out := collect(t, core.MinesweeperStreamContext, workers, p, &par); len(out) != 0 {
			t.Fatalf("workers %d: band join must be empty, got %d", workers, len(out))
		}
		if par.Boxes == 0 || par.BoxSkips == 0 {
			t.Fatalf("workers %d: box counters not merged: %+v", workers, par)
		}
		if par.ProbePoints == 0 || par.FindGaps == 0 {
			t.Fatalf("workers %d: stats not merged: %+v", workers, par)
		}
	}
}

// TestParallelPanickingMorsel: a morsel whose run panics ends the run
// with an error instead of taking the process down, after the tuples of
// the morsels before it, for both engines the executor serves.
func TestParallelPanickingMorsel(t *testing.T) {
	var r, s [][]int
	for b := 0; b < 64; b++ {
		r = append(r, []int{b, b % 7})
		s = append(s, []int{b % 7, b})
	}
	p := newProblem(t, []string{"A", "B", "C"}, []core.AtomSpec{
		{Name: "R", Attrs: []string{"A", "B"}, Tuples: r},
		{Name: "S", Attrs: []string{"B", "C"}, Tuples: s},
	})
	for _, name := range []string{"minesweeper", "leapfrog"} {
		eng, _ := Lookup(name)
		full := collect(t, eng.Run, 1, p, nil)
		for _, workers := range []int{2, 4} {
			var calls atomic.Int32
			panicky := func(ctx context.Context, p *core.Problem, st *certificate.Stats, emit func([]int) bool) error {
				if calls.Add(1) == 2 {
					panic("boom")
				}
				return eng.Run(ctx, p, st, emit)
			}
			var got [][]int
			err := Parallel(Engine{IndexOnly: true, Run: panicky}, workers)(context.Background(), p.Snapshot(), nil, func(tu []int) bool {
				got = append(got, tu)
				return true
			})
			if err == nil || !strings.Contains(err.Error(), "panicked: boom") {
				t.Fatalf("%s workers %d: err = %v, want the recovered panic", name, workers, err)
			}
			if len(got) >= len(full) || !slices.EqualFunc(got, full[:len(got)], slices.Equal) {
				t.Fatalf("%s workers %d: %d tuples before the error are not a proper prefix of the %d-tuple stream",
					name, workers, len(got), len(full))
			}
		}
	}
}

// splitProblem is a two-atom join whose leading attribute A runs over
// 0..63, with splits at the values a range partition of it over four
// shards would have.
func splitProblem(t *testing.T) *core.Problem {
	t.Helper()
	var r, s [][]int
	for a := 0; a < 64; a++ {
		r = append(r, []int{a, a % 5}, []int{a, a % 3})
		s = append(s, []int{a % 5, a}, []int{a % 3, a + 1})
	}
	p := newProblem(t, []string{"A", "B", "C"}, []core.AtomSpec{
		{Name: "R", Attrs: []string{"A", "B"}, Tuples: r},
		{Name: "S", Attrs: []string{"B", "C"}, Tuples: s},
	})
	p.SplitPos, p.Splits = 0, []int{10, 37, 50}
	return p
}

// leadRange is the range of leading values a morsel's R view holds.
func leadRange(p *core.Problem) (lo, hi int) {
	tr := p.Atoms[0].Tree
	l, h := tr.Top()
	vals := tr.Level(0)[l:h]
	return vals[0], vals[len(vals)-1]
}

// TestParallelSplitsAreMorselBoundaries: at every worker count, no
// morsel holds leading values on both sides of a split, and the stream
// is the sequential one.
func TestParallelSplitsAreMorselBoundaries(t *testing.T) {
	p := splitProblem(t)
	eng, _ := Lookup("minesweeper")
	whole := p.Snapshot()
	whole.Splits = nil
	want := collect(t, eng.Run, 1, whole, nil)
	for _, workers := range []int{1, 2, 4} {
		var morsels atomic.Int32
		recording := func(ctx context.Context, sub *core.Problem, st *certificate.Stats, emit func([]int) bool) error {
			morsels.Add(1)
			lo, hi := leadRange(sub)
			for _, s := range p.Splits {
				if lo < s && s <= hi {
					t.Errorf("workers %d: morsel [%d, %d] straddles split %d", workers, lo, hi, s)
				}
			}
			return eng.Run(ctx, sub, st, emit)
		}
		if got := collect(t, recording, workers, p, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers %d: split run diverges from the sequential stream", workers)
		}
		if n := morsels.Load(); int(n) < len(p.Splits)+1 {
			t.Fatalf("workers %d: %d morsels for %d splits", workers, n, len(p.Splits))
		}
	}
}

// TestParallelSplitsInOrderStartNoGoroutine: at one worker the split
// morsels run on the calling goroutine, so a run starts no goroutine.
func TestParallelSplitsInOrderStartNoGoroutine(t *testing.T) {
	p := splitProblem(t)
	eng, _ := Lookup("minesweeper")
	base := runtime.NumGoroutine()
	most, morsels := 0, 0
	counting := func(ctx context.Context, sub *core.Problem, st *certificate.Stats, emit func([]int) bool) error {
		morsels++
		return eng.Run(ctx, sub, st, func(tu []int) bool {
			most = max(most, runtime.NumGoroutine())
			return emit(tu)
		})
	}
	if out := collect(t, counting, 1, p, nil); len(out) == 0 {
		t.Fatal("empty stream")
	}
	if morsels != len(p.Splits)+1 {
		t.Fatalf("%d morsels, want one per split range (%d)", morsels, len(p.Splits)+1)
	}
	if most > base {
		t.Fatalf("a one-worker split run had %d goroutines, %d before it", most, base)
	}
}

// TestParallelSplitsAnytime: a split run keeps the anytime contract at
// every worker count — a limit-1 run stops after the first tuple and
// reports it, and a cancelled run returns the context's error without
// one more yield.
func TestParallelSplitsAnytime(t *testing.T) {
	p := splitProblem(t)
	for _, name := range []string{"minesweeper", "leapfrog"} {
		eng, _ := Lookup(name)
		want := collect(t, eng.Run, 1, p, nil)
		for _, workers := range []int{1, 2, 4} {
			run := Parallel(eng, workers)
			var got [][]int
			var stats certificate.Stats
			if err := run(context.Background(), p.Snapshot(), &stats, func(tu []int) bool {
				got = append(got, tu)
				return false
			}); err != nil {
				t.Fatalf("%s workers %d: limit-1 run: %v", name, workers, err)
			}
			if len(got) != 1 || !slices.Equal(got[0], want[0]) {
				t.Fatalf("%s workers %d: limit-1 run yielded %v, want %v", name, workers, got, want[:1])
			}
			if stats.Outputs != 1 {
				t.Fatalf("%s workers %d: limit-1 run reports %d outputs", name, workers, stats.Outputs)
			}

			// Cancel inside the morsel after the first split, so an
			// in-order run has whole morsels left to start.
			ctx, cancel := context.WithCancel(context.Background())
			seen, late := 0, false
			err := run(ctx, p.Snapshot(), nil, func(tu []int) bool {
				if ctx.Err() != nil {
					late = true
				}
				seen++
				if tu[0] >= p.Splits[0] {
					cancel()
				}
				return true
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s workers %d: cancelled run returned %v", name, workers, err)
			}
			if late || seen >= len(want) {
				t.Fatalf("%s workers %d: %d of %d tuples yielded, one after the cancel: %v", name, workers, seen, len(want), late)
			}
		}
	}
}
