package reltree

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"minesweeper/internal/rows"
)

// TestMergeMatchesRebuild: merging sorted add and delete batches into a
// tree yields exactly the CSR arrays a build from scratch over the
// resulting set yields — levels and offsets, not just the tuples — and
// leaves the old tree untouched. Batches repeat rows, add rows already
// present and delete absent ones; domains are small so that runs start
// and end in the middle of shared prefixes.
func TestMergeMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randFlat := func(arity, n, domain int) []int {
		flat := make([]int, n*arity)
		for i := range flat {
			flat[i] = rng.Intn(domain)
		}
		return rows.Sort(flat, arity)
	}
	for trial := 0; trial < 2000; trial++ {
		arity := 1 + rng.Intn(4)
		domain := 2 + rng.Intn(5)
		base := randFlat(arity, rng.Intn(60), domain)
		adds := randFlat(arity, rng.Intn(10), domain)
		dels, _ := rows.Remove(randFlat(arity, rng.Intn(10), domain), adds, arity) // no row in both

		old := NewSorted("R", arity, base)
		oldTuples := old.Tuples()
		builds, merged := Builds(), Merges()
		got := Merge(old, adds, dels)
		if Builds() != builds+1 || Merges() != merged+1 {
			t.Fatalf("Merge counted %d builds, %d merges; want 1 and 1", Builds()-builds, Merges()-merged)
		}

		kept, _ := rows.Remove(base, dels, arity)
		want := NewSorted("R", arity, rows.Merge(kept, adds, arity))
		if got.size != want.size || got.topN != want.topN || !equalFlat(got.flat, want.flat) {
			t.Fatalf("arity %d: base %v + %v - %v:\nmerged  %v\nrebuilt %v", arity, base, adds, dels, describe(got), describe(want))
		}
		if !reflect.DeepEqual(old.Tuples(), oldTuples) {
			t.Fatal("Merge modified the old tree")
		}
	}
}

func equalFlat(a, b *flatIndex) bool {
	for d := range a.levels {
		if !reflect.DeepEqual(append([]int{}, a.levels[d]...), append([]int{}, b.levels[d]...)) {
			return false
		}
	}
	return reflect.DeepEqual(a.offs, b.offs)
}

func describe(t *Tree) string {
	return fmt.Sprintf("levels %v offs %v", t.flat.levels, t.flat.offs)
}
