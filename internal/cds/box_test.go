package cds

import (
	"math/rand"
	"strings"
	"testing"

	"minesweeper/internal/certificate"
	"minesweeper/internal/ordered"
)

func rg(lo, hi int) ordered.Range { return ordered.Range{Lo: lo, Hi: hi} }

func TestBoxConstraintCovers(t *testing.T) {
	b := BoxConstraint{
		Prefix: Pattern{Eq(1), Star},
		Dims:   []ordered.Range{rg(4, 8), rg(10, 20)},
	}
	if !b.Covers([]int{1, 99, 5, 15}) {
		t.Fatal("tuple inside the box must be covered")
	}
	for _, tp := range [][]int{
		{2, 99, 5, 15}, // prefix mismatch
		{1, 99, 9, 15}, // first dim outside
		{1, 99, 5, 21}, // second dim outside
		{1, 99, 5},     // too short
	} {
		if b.Covers(tp) {
			t.Fatalf("tuple %v must not be covered", tp)
		}
	}
	if !(BoxConstraint{Dims: []ordered.Range{rg(3, 2), rg(0, 9)}}).Empty() {
		t.Fatal("box with an empty dimension must be empty")
	}
}

func TestInsBoxDegenerateAndDedup(t *testing.T) {
	tr := NewTree(3)
	var s certificate.Stats
	tr.SetStats(&s)
	// One-dimensional boxes are plain interval constraints.
	tr.InsBox(BoxConstraint{Prefix: Pattern{Eq(5)}, Dims: []ordered.Range{rg(4, 8)}})
	if tr.BoxCount() != 0 || s.Constraints != 1 || s.Boxes != 0 {
		t.Fatalf("1-dim box: boxes=%d stats=%+v", tr.BoxCount(), s)
	}
	if !tr.CoversTuple([]int{5, 6, 0}) {
		t.Fatal("degenerate box must act as an interval constraint")
	}
	// Real boxes are stored once; dimension-wise subsumed re-inserts drop.
	b := BoxConstraint{Prefix: Pattern{}, Dims: []ordered.Range{rg(0, 10), rg(20, 30)}}
	tr.InsBox(b)
	tr.InsBox(b)
	tr.InsBox(BoxConstraint{Prefix: Pattern{}, Dims: []ordered.Range{rg(2, 8), rg(22, 28)}})
	if tr.BoxCount() != 1 || s.Boxes != 1 {
		t.Fatalf("dedup failed: boxes=%d stats.Boxes=%d", tr.BoxCount(), s.Boxes)
	}
	if !tr.CoversTuple([]int{3, 25, 0}) || tr.CoversTuple([]int{3, 31, 0}) {
		t.Fatal("box coverage wrong")
	}
}

// TestInsBoxMergeAdjacent: boxes with identical prefix and trailing
// dimensions whose first middle dimensions overlap or abut merge in
// place instead of accumulating — the widening-streak pattern that used
// to store one box per widening.
func TestInsBoxMergeAdjacent(t *testing.T) {
	tr := NewTree(3)
	var s certificate.Stats
	tr.SetStats(&s)
	mk := func(lo, hi int) BoxConstraint {
		return BoxConstraint{Prefix: Pattern{}, Dims: []ordered.Range{rg(lo, hi), rg(20, 30)}}
	}
	tr.InsBox(mk(0, 10))
	tr.InsBox(mk(11, 15)) // abuts: [0,10] ∪ [11,15] = [0,15]
	tr.InsBox(mk(14, 22)) // overlaps the merged box
	if tr.BoxCount() != 1 || s.Boxes != 1 {
		t.Fatalf("adjacent boxes did not merge: count=%d stats.Boxes=%d", tr.BoxCount(), s.Boxes)
	}
	for _, v := range []int{0, 10, 11, 15, 22} {
		if !tr.CoversTuple([]int{v, 25, 0}) {
			t.Fatalf("merged box must cover first dim %d", v)
		}
	}
	if tr.CoversTuple([]int{23, 25, 0}) {
		t.Fatal("merged box must not cover beyond the union")
	}
	// A gap between first dimensions must NOT merge (the union is not a
	// rectangle), and different trailing dimensions must not merge either.
	tr.InsBox(mk(25, 30))
	tr.InsBox(BoxConstraint{Prefix: Pattern{}, Dims: []ordered.Range{rg(16, 20), rg(40, 50)}})
	if tr.BoxCount() != 3 {
		t.Fatalf("unmergeable boxes collapsed: count=%d", tr.BoxCount())
	}
	if tr.CoversTuple([]int{24, 25, 0}) || tr.CoversTuple([]int{23, 35, 0}) {
		t.Fatal("merge ruled out space no inserted box covered")
	}
	// The widened box keeps working through the probe path after a merge
	// that re-sorts its bucket: a box under a pinned prefix merges too.
	tr2 := NewTree(3)
	p := Pattern{Eq(7)}
	tr2.InsBox(BoxConstraint{Prefix: p, Dims: []ordered.Range{rg(5, 9), rg(1, 3)}})
	tr2.InsBox(BoxConstraint{Prefix: p, Dims: []ordered.Range{rg(0, 4), rg(1, 3)}})
	if tr2.BoxCount() != 1 {
		t.Fatalf("pinned-prefix merge failed: count=%d", tr2.BoxCount())
	}
	if !tr2.CoversTuple([]int{7, 2, 2}) || tr2.CoversTuple([]int{8, 2, 2}) {
		t.Fatal("pinned-prefix merged box coverage wrong")
	}
}

func TestBoxSkipsProbe(t *testing.T) {
	tr := NewTree(2)
	var s certificate.Stats
	tr.SetStats(&s)
	tr.InsConstraint(Constraint{Prefix: Pattern{}, Lo: ordered.NegInf, Hi: 0})
	tr.InsConstraint(Constraint{Prefix: Pattern{Star}, Lo: ordered.NegInf, Hi: 20})
	tr.InsBox(BoxConstraint{Prefix: Pattern{}, Dims: []ordered.Range{rg(0, 10), rg(20, 30)}})
	probe := tr.GetProbePoint()
	if probe == nil || probe[0] != 0 || probe[1] != 31 {
		t.Fatalf("probe = %v, want [0 31]", probe)
	}
	if s.BoxSkips == 0 {
		t.Fatal("expected the box to serve the advance")
	}
}

// TestBoxResolutionBacktrack is the geometric-resolution payoff: a box
// covering a whole level under a run of first-coordinate values must be
// discharged with ONE backtrack that rules out the entire run, not one
// backtrack per value.
func TestBoxResolutionBacktrack(t *testing.T) {
	tr := NewTree(2)
	var s certificate.Stats
	tr.SetStats(&s)
	tr.InsConstraint(Constraint{Prefix: Pattern{}, Lo: ordered.NegInf, Hi: 0})
	tr.InsConstraint(Constraint{Prefix: Pattern{}, Lo: 4, Hi: ordered.PosInf})
	// For every a ∈ [0,4], all b are ruled out.
	tr.InsBox(BoxConstraint{Prefix: Pattern{}, Dims: []ordered.Range{
		rg(0, 4), rg(ordered.NegInf, ordered.PosInf)}})
	if got := tr.GetProbePoint(); got != nil {
		t.Fatalf("space is covered, got probe %v", got)
	}
	if s.Backtracks != 1 {
		t.Fatalf("backtracks = %d, want exactly 1 (whole run resolved at once)", s.Backtracks)
	}
	if s.BoxSkips == 0 {
		t.Fatal("expected box-served advances")
	}
}

// TestBoxMixedCoverBacktrack: when intervals and boxes jointly cover a
// level the inferred constraint must stay fully specific — and still
// make progress.
func TestBoxMixedCoverBacktrack(t *testing.T) {
	tr := NewTree(2)
	tr.InsConstraint(Constraint{Prefix: Pattern{}, Lo: ordered.NegInf, Hi: 0})
	tr.InsConstraint(Constraint{Prefix: Pattern{}, Lo: 0, Hi: ordered.PosInf})
	// Only a=0 is probe-able. Under it the box kills b ∈ [0,50] and an
	// =0-specific interval kills the rest: neither alone covers the level.
	tr.InsBox(BoxConstraint{Prefix: Pattern{}, Dims: []ordered.Range{rg(0, 0), rg(0, 50)}})
	tr.InsConstraint(Constraint{Prefix: Pattern{Eq(0)}, Lo: ordered.NegInf, Hi: 0})
	tr.InsConstraint(Constraint{Prefix: Pattern{Eq(0)}, Lo: 50, Hi: ordered.PosInf})
	if got := tr.GetProbePoint(); got != nil {
		t.Fatalf("space is covered, got probe %v", got)
	}
	if !tr.CoversTuple([]int{0, 25}) {
		t.Fatal("box region lost")
	}
}

// TestBoxDumpRoundTrip: a reset tree refilled with the same constraints
// and boxes must dump identically, and the dump must render every
// stored box — the gap count round-trips through the debug form.
func TestBoxDumpRoundTrip(t *testing.T) {
	fill := func(tr *Tree) {
		tr.InsConstraint(Constraint{Prefix: Pattern{Eq(2), Star}, Lo: 0, Hi: 7})
		tr.InsBox(BoxConstraint{Prefix: Pattern{Eq(2)}, Dims: []ordered.Range{rg(1, 3), rg(5, 9)}})
		tr.InsBox(BoxConstraint{Prefix: Pattern{}, Dims: []ordered.Range{
			rg(0, 10), rg(ordered.NegInf, 4), rg(7, ordered.PosInf)}})
	}
	fresh := NewTree(3)
	fill(fresh)
	reused := NewTree(3)
	fill(reused)
	reused.Reset()
	fill(reused)
	got, want := reused.Dump(), fresh.Dump()
	if got != want {
		t.Fatalf("reset tree diverged:\n got:\n%s\nwant:\n%s", got, want)
	}
	if n := strings.Count(got, "box@"); n != fresh.BoxCount() {
		t.Fatalf("dump renders %d boxes, tree stores %d:\n%s", n, fresh.BoxCount(), got)
	}
	for _, frag := range []string{"box@2 <=2>[1,3]x[5,9]", "box@2 <>[0,10]x[-inf,4]x[7,+inf]"} {
		if !strings.Contains(got, frag) {
			t.Fatalf("dump missing %q:\n%s", frag, got)
		}
	}
}

// TestBoxProbeEnumeration drains trees seeded with random boxes and
// intervals over a small finite domain and checks the probe sequence is
// exactly the lexicographic enumeration of the active tuples — boxes
// must neither hide active tuples (unsound inference) nor leak covered
// ones (missed skips).
func TestBoxProbeEnumeration(t *testing.T) {
	const n, dom = 3, 6
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 30; trial++ {
		tr := NewTree(n)
		stars := Pattern{Star, Star}
		for d := 0; d < n; d++ {
			tr.InsConstraint(Constraint{Prefix: stars[:d], Lo: ordered.NegInf, Hi: 0})
			tr.InsConstraint(Constraint{Prefix: stars[:d], Lo: dom - 1, Hi: ordered.PosInf})
		}
		var boxes []BoxConstraint
		var cons []Constraint
		for k := 0; k < 4; k++ {
			start := rng.Intn(n - 1)
			ndims := 2 + rng.Intn(n-start-1)
			prefix := make(Pattern, start)
			for i := range prefix {
				if rng.Intn(2) == 0 {
					prefix[i] = Star
				} else {
					prefix[i] = Eq(rng.Intn(dom))
				}
			}
			dims := make([]ordered.Range, ndims)
			for i := range dims {
				lo := rng.Intn(dom)
				dims[i] = rg(lo, lo+rng.Intn(dom-lo))
			}
			b := BoxConstraint{Prefix: prefix, Dims: dims}
			boxes = append(boxes, b)
			tr.InsBox(b)
		}
		for k := 0; k < 3; k++ {
			c := randomConstraint(rng, n, dom)
			cons = append(cons, c)
			tr.InsConstraint(c)
		}

		var want [][]int
		for a := 0; a < dom; a++ {
			for b := 0; b < dom; b++ {
			cell:
				for c := 0; c < dom; c++ {
					tp := []int{a, b, c}
					for _, bx := range boxes {
						if bx.Covers(tp) {
							continue cell
						}
					}
					for _, cn := range cons {
						if cn.Covers(tp) {
							continue cell
						}
					}
					want = append(want, append([]int(nil), tp...))
				}
			}
		}

		var got [][]int
		ruleOut := make(Pattern, n-1)
		for steps := 0; ; steps++ {
			if steps > 5*dom*dom*dom {
				t.Fatalf("trial %d: drain did not converge", trial)
			}
			probe := tr.GetProbePoint()
			if probe == nil {
				break
			}
			got = append(got, append([]int(nil), probe...))
			for i := 0; i < n-1; i++ {
				ruleOut[i] = Eq(probe[i])
			}
			pv := probe[n-1]
			tr.InsConstraint(Constraint{Prefix: ruleOut, Lo: pv - 1, Hi: pv + 1})
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: enumerated %d tuples, want %d\ngot: %v\nwant: %v",
				trial, len(got), len(want), got, want)
		}
		for i := range want {
			for j := 0; j < n; j++ {
				if got[i][j] != want[i][j] {
					t.Fatalf("trial %d: probe %d = %v, want %v", trial, i, got[i], want[i])
				}
			}
		}
	}
}

func TestBoxProbeInsertLoopSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; budgets measured without -race")
	}
	// Same discipline as the interval-only loop test, with boxes in the
	// mix: after one drain has sized the arenas, a Reset + identical
	// refill + drain performs zero allocations.
	const span = 16
	stars := Pattern{Star, Star}
	ruleOut := Pattern{Eq(0), Eq(0)}
	dims := []ordered.Range{{}, {}}
	drain := func(tr *Tree) int {
		for d := 0; d < 3; d++ {
			tr.InsConstraint(Constraint{Prefix: stars[:d], Lo: ordered.NegInf, Hi: 0})
			tr.InsConstraint(Constraint{Prefix: stars[:d], Lo: span - 1, Hi: ordered.PosInf})
		}
		dims[0] = rg(0, span/2)
		dims[1] = rg(0, span-1)
		tr.InsBox(BoxConstraint{Prefix: stars[:1], Dims: dims})
		n := 0
		for pt := tr.GetProbePoint(); pt != nil; pt = tr.GetProbePoint() {
			ruleOut[0], ruleOut[1] = Eq(pt[0]), Eq(pt[1])
			tr.InsConstraint(Constraint{Prefix: ruleOut, Lo: ordered.NegInf, Hi: ordered.PosInf})
			if n++; n > 4*span*span {
				t.Fatal("drain did not converge")
			}
		}
		return n
	}
	tr := NewTree(3)
	first := drain(tr)
	if first == 0 {
		t.Fatal("drain produced no probes")
	}
	allocs := testing.AllocsPerRun(20, func() {
		tr.Reset()
		if got := drain(tr); got != first {
			t.Fatalf("drain emitted %d probes, want %d", got, first)
		}
	})
	if allocs != 0 {
		t.Fatalf("reset+drain with boxes steady state: %v allocs/run, want 0", allocs)
	}
}

// TestResetEmptiesBoxIndex: a reset tree must carry no box shape, key or
// bucket of its previous life (a recycled tree would otherwise walk and
// count them), and a refill must cost exactly what the first fill did.
func TestResetEmptiesBoxIndex(t *testing.T) {
	fill := func(tr *Tree, prefix Pattern) int64 {
		var s certificate.Stats
		tr.SetStats(&s)
		tr.InsBox(BoxConstraint{Prefix: prefix, Dims: []ordered.Range{rg(0, 4), rg(0, 9)}})
		for pt := tr.GetProbePoint(); pt != nil && s.ProbePoints < 8; pt = tr.GetProbePoint() {
			tr.InsConstraint(Constraint{Prefix: Pattern{Eq(pt[0]), Eq(pt[1])}, Lo: ordered.NegInf, Hi: ordered.PosInf})
		}
		return s.CDSOps
	}
	tr := NewTree(3)
	want := fill(tr, Pattern{Star})
	tr.Reset()
	for i := range tr.boxKeyIdx {
		if n := len(tr.boxKeyIdx[i]); n != 0 {
			t.Errorf("boxKeyIdx[%d] holds %d keys after Reset", i, n)
		}
		if n := len(tr.boxShapesAt[i]); n != 0 {
			t.Errorf("boxShapesAt[%d] holds %d shapes after Reset", i, n)
		}
		if n := len(tr.boxBuckets[i]); n != 0 {
			t.Errorf("boxBuckets[%d] holds %d buckets after Reset", i, n)
		}
	}
	// A different shape in between must not make the original dearer.
	fill(tr, Pattern{Eq(3)})
	tr.Reset()
	if got := fill(tr, Pattern{Star}); got != want {
		t.Fatalf("refill after Reset cost %d CDS ops, first fill %d", got, want)
	}
}
