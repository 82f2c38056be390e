package rows

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"minesweeper/internal/ordered"
)

func randFlat(rng *rand.Rand, arity, n int) []int {
	flat := make([]int, n*arity)
	for i := range flat {
		switch rng.Intn(3) {
		case 0:
			flat[i] = rng.Intn(4)
		case 1:
			flat[i] = rng.Intn(5000)
		default:
			flat[i] = rng.Intn(ordered.PosInf) // every radix digit in play
		}
	}
	return flat
}

// refSorted is the reference order: sort.Slice over copied rows.
func refSorted(flat []int, arity int) [][]int {
	out := [][]int{}
	for _, v := range Views(flat, arity) {
		out = append(out, append([]int(nil), v...))
	}
	sort.Slice(out, func(i, j int) bool { return Compare(out[i], out[j]) < 0 })
	return out
}

func TestCheckAndFlatten(t *testing.T) {
	for _, tc := range []struct {
		tuples [][]int
		want   string
	}{
		{[][]int{{1, 2}, {3}}, "tuple 1 has 1 values, want 2"},
		{[][]int{{1, -2}}, "tuple 0 component 1 = -2 out of domain"},
		{[][]int{{ordered.PosInf, 0}}, "tuple 0 component 0"},
	} {
		if _, err := Flatten(2, tc.tuples); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Flatten(%v) = %v, want error containing %q", tc.tuples, err, tc.want)
		}
	}
	src := [][]int{{3, 4}, {1, 2}}
	flat, err := Flatten(2, src)
	if err != nil || !reflect.DeepEqual(flat, []int{3, 4, 1, 2}) {
		t.Fatalf("Flatten = %v, %v", flat, err)
	}
	src[0][0] = 99
	if flat[0] != 3 {
		t.Fatal("Flatten aliases its input")
	}
}

func TestSortMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		arity := 1 + rng.Intn(5)
		flat := randFlat(rng, arity, rng.Intn(200))
		want := refSorted(flat, arity)
		got := Sort(flat, arity)
		if !isSorted(got, arity) || !reflect.DeepEqual(Views(got, arity), want) && len(want) > 0 {
			t.Fatalf("arity %d: Sort = %v, want %v", arity, Views(got, arity), want)
		}
	}
}

// TestMergeRemove checks the two sorted-batch primitives against a
// multiset model, and that neither touches its arguments.
func TestMergeRemove(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	small := func(arity, n int) []int {
		flat := make([]int, n*arity)
		for i := range flat {
			flat[i] = rng.Intn(4)
		}
		return Sort(flat, arity)
	}
	for trial := 0; trial < 500; trial++ {
		arity := 1 + rng.Intn(3)
		base, batch := small(arity, rng.Intn(40)), small(arity, rng.Intn(12))
		base0, batch0 := append([]int(nil), base...), append([]int(nil), batch...)

		merged := Merge(base, batch, arity)
		if want := refSorted(append(append([]int(nil), base...), batch...), arity); !reflect.DeepEqual(Views(merged, arity), want) && len(want) > 0 {
			t.Fatalf("Merge(%v, %v) = %v", base, batch, merged)
		}

		kept, removed := Remove(base, batch, arity)
		var wantKept, wantRemoved [][]int
		for _, row := range Views(base, arity) {
			hit := false
			for _, b := range Views(batch, arity) {
				hit = hit || Compare(row, b) == 0
			}
			if hit {
				wantRemoved = append(wantRemoved, row)
			} else {
				wantKept = append(wantKept, row)
			}
		}
		if len(kept) != len(wantKept)*arity || len(wantKept) > 0 && !reflect.DeepEqual(Views(kept, arity), wantKept) {
			t.Fatalf("Remove(%v, %v) kept %v, want %v", base, batch, kept, wantKept)
		}
		if len(removed) != len(wantRemoved)*arity || len(wantRemoved) > 0 && !reflect.DeepEqual(Views(removed, arity), wantRemoved) {
			t.Fatalf("Remove(%v, %v) removed %v, want %v", base, batch, removed, wantRemoved)
		}
		if !slices.Equal(base, base0) || !slices.Equal(batch, batch0) {
			t.Fatal("Merge or Remove modified an argument")
		}
	}
}

func TestPermute(t *testing.T) {
	got := Permute([]int{1, 2, 3, 4, 5, 6}, 3, []int{2, 0, 1})
	if want := []int{3, 1, 2, 6, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Permute = %v, want %v", got, want)
	}
}

func TestParseRow(t *testing.T) {
	var b Block
	for _, tc := range []struct {
		line   string
		want   []int
		fields int
		bad    string
	}{
		{"1 2 3", []int{1, 2, 3}, 3, ""},
		{"  7\t8 \r", []int{7, 8}, 2, ""},
		{"", []int{}, 0, ""},
		{"007", []int{7}, 1, ""},
		{"999999999999999999", []int{999999999999999999}, 1, ""},
		// Outside the plain form: decided by strings.Fields + strconv.Atoi.
		{"1000000000000000000", []int{1000000000000000000}, 1, ""},
		{"99999999999999999999", nil, 1, "99999999999999999999"},
		{"+5 -0", []int{5, 0}, 2, ""},
		{"1\u00a02", []int{1, 2}, 2, ""},
		{"1 x 3", nil, 3, "x"},
		{"12a", nil, 1, "12a"},
		{"4 -1", nil, 2, "-1"},
	} {
		got, fields, bad := b.ParseRow([]byte(tc.line))
		if fields != tc.fields || bad != tc.bad || bad == "" && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseRow(%q) = %v, %d, %q; want %v, %d, %q", tc.line, got, fields, bad, tc.want, tc.fields, tc.bad)
		}
	}
	// Rows are carved from shared chunks without overlapping, a failed
	// parse claims nothing, and a row wider than a chunk still parses.
	var held [][]int
	for i := 0; i < 3000; i++ {
		if i%7 == 0 {
			b.ParseRow([]byte("5 6 oops"))
		}
		row, _, bad := b.ParseRow([]byte("1 2 3"))
		if bad != "" {
			t.Fatal("plain row rejected")
		}
		row[0] = i
		held = append(held, row)
	}
	for i, row := range held {
		if !reflect.DeepEqual(row, []int{i, 2, 3}) {
			t.Fatalf("row %d = %v: carved rows overlap", i, row)
		}
	}
	wide, _, _ := b.ParseRow([]byte(strings.Repeat("4 ", 3*blockInts)))
	if len(wide) != 3*blockInts || wide[len(wide)-1] != 4 {
		t.Fatalf("wide row: len %d", len(wide))
	}
	if next, _, _ := b.ParseRow([]byte("8 9")); !reflect.DeepEqual(next, []int{8, 9}) || append(next, 1)[0] != 8 {
		t.Fatalf("row after a wide one = %v", next)
	}
}
