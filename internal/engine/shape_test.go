package engine

import (
	"context"
	"reflect"
	"testing"

	"minesweeper/internal/core"
)

// Shaping permutes each tuple into its own raw tuple: the retained rows
// stay intact after the run, a column may appear twice, and a shape
// wider than the raw tuple is refused.
func TestRunShapedPermutesInPlace(t *testing.T) {
	p := newProblem(t, []string{"A", "B", "C"}, []core.AtomSpec{
		{Name: "R", Attrs: []string{"A", "B"}, Tuples: [][]int{{1, 2}, {3, 2}, {4, 5}}},
		{Name: "S", Attrs: []string{"B", "C"}, Tuples: [][]int{{2, 7}, {2, 8}, {5, 9}}},
	})
	var got [][]int
	err := RunShaped(context.Background(), core.MinesweeperStreamContext, p, &Shape{Cols: []int{2, 0, 2}}, nil, func(tu []int) bool {
		got = append(got, tu)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{7, 1, 7}, {8, 1, 8}, {7, 3, 7}, {8, 3, 8}, {9, 4, 9}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shaped rows %v, want %v", got, want)
	}
	err = RunShaped(context.Background(), core.MinesweeperStreamContext, p, &Shape{Cols: []int{0, 1, 2, 0}}, nil, func([]int) bool {
		t.Fatal("a row of an over-wide shape was emitted")
		return false
	})
	if err == nil {
		t.Fatal("a shape wider than the raw tuple ran")
	}
}
