package minesweeper

import (
	"testing"

	"minesweeper/internal/reltree"
)

// mutateRefreshBudget bounds the objects one insert-refresh-delete-
// refresh round may allocate on a relation with one cached index: flat
// buffers (batch, merged store, CSR levels) and their headers, nothing
// per stored row or per batch row.
const mutateRefreshBudget = 64

// TestMutateRefreshAllocBudget: Insert(256) + IndexesFor + Delete(256) +
// IndexesFor over 100k rows allocates a small constant number of
// objects, and both refreshes take the merge path.
func TestMutateRefreshAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; budgets measured without -race")
	}
	const n, m = 100_000, 256
	base := make([][]int, n)
	for i := range base {
		base[i] = []int{(i * 7919) % n, i % 1000} // arrival order is not sorted order
	}
	batch := make([][]int, m)
	for i := range batch {
		batch[i] = []int{(i * 389) % n, 1000 + i}
	}
	r := rel(t, "R", 2, base)
	perms := [][]int{{1, 0}}
	refresh := func() {
		if _, _, err := r.IndexesFor(perms); err != nil {
			t.Fatal(err)
		}
	}
	refresh()
	builds, merges := reltree.Builds(), reltree.Merges()
	const runs = 5
	got := testing.AllocsPerRun(runs, func() {
		if err := r.Insert(batch...); err != nil {
			t.Fatal(err)
		}
		refresh()
		if removed, err := r.Delete(batch...); err != nil || removed != m {
			t.Fatalf("Delete = %d, %v; want %d, nil", removed, err, m)
		}
		refresh()
	})
	if got > mutateRefreshBudget {
		t.Errorf("insert+refresh+delete+refresh: %v allocs/run, budget %d", got, mutateRefreshBudget)
	}
	// AllocsPerRun calls the function once more to warm up.
	if b, mg := reltree.Builds()-builds, reltree.Merges()-merges; b != 2*(runs+1) || mg != b {
		t.Errorf("%d index builds of which %d merges, want %d merges", b, mg, 2*(runs+1))
	}
}
