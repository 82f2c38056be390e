package minesweeper

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"minesweeper/internal/core"
	"minesweeper/internal/planner"
	"minesweeper/internal/reltree"
)

// relModel is the reference the relation store is checked against: a
// map of row counts, with none of the flat-row code.
type relModel struct {
	arity  int
	counts map[string]int
	rows   map[string][]int
}

func newRelModel(arity int) *relModel {
	return &relModel{arity: arity, counts: map[string]int{}, rows: map[string][]int{}}
}

func (m *relModel) insert(tuples [][]int) {
	for _, tup := range tuples {
		k := fmt.Sprint(tup)
		m.counts[k]++
		m.rows[k] = tup
	}
}

func (m *relModel) delete(tuples [][]int) (removed int) {
	for _, tup := range tuples {
		k := fmt.Sprint(tup)
		removed += m.counts[k]
		delete(m.counts, k)
		delete(m.rows, k)
	}
	return removed
}

// stored returns the stored multiset, in no particular order.
func (m *relModel) stored() [][]int {
	var out [][]int
	for k, n := range m.counts {
		for i := 0; i < n; i++ {
			out = append(out, m.rows[k])
		}
	}
	return out
}

func randRows(rng *rand.Rand, arity, n, domain int) [][]int {
	out := make([][]int, n)
	for i := range out {
		out[i] = make([]int, arity)
		for j := range out[i] {
			out[i][j] = rng.Intn(domain)
		}
	}
	return out
}

// checkTree asserts that got — an index served by the relation, built or
// merged — is indistinguishable from a tree built from scratch over the
// model's rows: same tuples, same answers at random probes.
func checkTree(t *testing.T, rng *rand.Rand, got *reltree.Tree, m *relModel, perm []int, domain int) {
	t.Helper()
	permuted, err := core.PermuteTuples(perm, m.stored())
	if err != nil {
		t.Fatal(err)
	}
	want, err := reltree.New("want", m.arity, permuted)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != want.Size() || !reflect.DeepEqual(got.Tuples(), want.Tuples()) {
		t.Fatalf("perm %v: index holds %v, want %v", perm, got.Tuples(), want.Tuples())
	}
	for probe := 0; probe < 20; probe++ {
		x := make([]int, 0, m.arity)
		for d := rng.Intn(m.arity); len(x) < d && want.Fanout(x) > 0; {
			x = append(x, rng.Intn(want.Fanout(x)))
		}
		a := rng.Intn(domain + 1)
		gl, gh := got.FindGap(x, a)
		wl, wh := want.FindGap(x, a)
		if gl != wl || gh != wh {
			t.Fatalf("perm %v: FindGap(%v, %d) = (%d,%d), want (%d,%d)", perm, x, a, gl, gh, wl, wh)
		}
		if fan := want.Fanout(x); len(x) < m.arity-1 && fan > 0 {
			from, to, lo := rng.Intn(fan), rng.Intn(fan), rng.Intn(domain)
			hi := lo + 1 + rng.Intn(domain)
			if g, w := got.GapRun(x, from, to, lo, hi), want.GapRun(x, from, to, lo, hi); g != w {
				t.Fatalf("perm %v: GapRun(%v, %d, %d, %d, %d) = %d, want %d", perm, x, from, to, lo, hi, g, w)
			}
		}
		row := randRows(rng, m.arity, 1, domain)[0]
		if g, w := got.Contains(row), want.Contains(row); g != w {
			t.Fatalf("perm %v: Contains(%v) = %v, want %v", perm, row, g, w)
		}
	}
}

// TestRelationModel drives a relation with random Insert / Delete /
// Replace batches — duplicate and absent rows included — interleaved
// with index requests under random column orders, and checks every
// observable against the map-of-counts model after each step: indexes
// (mostly merged forward, sometimes rebuilt) against reltree.New, the
// merge-maintained ColStats against planner.Collect, Len and removed
// counts, and that trees and Tuples snapshots taken before a mutation
// are untouched by it. The script runs once alone — so that indexes
// really fall several batches behind — and once with concurrent readers
// fetching indexes, snapshots and statistics throughout: under -race
// they check the locking, and in any mode that one IndexesFor call
// never mixes epochs.
func TestRelationModel(t *testing.T) {
	for arity := 1; arity <= 4; arity++ {
		for _, nReaders := range []int{0, 2} {
			testRelationModel(t, arity, nReaders)
		}
	}
}

func testRelationModel(t *testing.T, arity, nReaders int) {
	t.Run(fmt.Sprintf("arity=%d/readers=%d", arity, nReaders), func(t *testing.T) {
		rng := rand.New(rand.NewSource(int64(40 + arity)))
		const domain = 6
		perms := [][]int{identityPerm(arity)}
		for len(perms) < 3 {
			perms = append(perms, rng.Perm(arity))
		}
		m := newRelModel(arity)
		initial := randRows(rng, arity, 30, domain)
		m.insert(initial)
		r := rel(t, "R", arity, initial)

		stop := make(chan struct{})
		var readers sync.WaitGroup
		for w := 0; w < nReaders; w++ {
			readers.Add(1)
			go func(seed int64) {
				defer readers.Done()
				rng := rand.New(rand.NewSource(seed))
				for {
					select {
					case <-stop:
						return
					default:
					}
					trees, _, err := r.IndexesFor([][]int{perms[rng.Intn(len(perms))], perms[rng.Intn(len(perms))]})
					if err != nil {
						t.Error(err)
						return
					}
					if trees[0].Size() != trees[1].Size() {
						t.Errorf("one IndexesFor call mixed epochs: sizes %d and %d", trees[0].Size(), trees[1].Size())
						return
					}
					r.SnapshotTuples()
					r.ColStats()
				}
			}(int64(100*arity + w))
		}
		defer func() {
			close(stop)
			readers.Wait()
		}()

		merges := reltree.Merges()
		for step := 0; step < 150; step++ {
			// Hold on to what readers of the pre-mutation state hold.
			oldPerm := perms[rng.Intn(len(perms))]
			oldTrees, _, err := r.IndexesFor([][]int{oldPerm})
			if err != nil {
				t.Fatal(err)
			}
			oldRows := oldTrees[0].Tuples()
			snap := r.Tuples()
			snapCopy := make([][]int, len(snap))
			for i, row := range snap {
				snapCopy[i] = append([]int(nil), row...)
			}

			batch := randRows(rng, arity, rng.Intn(8), domain)
			if n := len(batch); n > 1 && rng.Intn(2) == 0 {
				batch[n-1] = batch[0] // a repeat inside the batch
			}
			switch op := rng.Intn(10); {
			case op < 5:
				if err := r.Insert(batch...); err != nil {
					t.Fatal(err)
				}
				m.insert(batch)
			case op < 9:
				removed, err := r.Delete(batch...)
				if err != nil {
					t.Fatal(err)
				}
				if want := m.delete(batch); removed != want {
					t.Fatalf("step %d: Delete removed %d rows, model says %d", step, removed, want)
				}
			default:
				batch = randRows(rng, arity, rng.Intn(40), domain)
				if err := r.Replace(batch); err != nil {
					t.Fatal(err)
				}
				m = newRelModel(arity)
				m.insert(batch)
			}

			if !reflect.DeepEqual(oldTrees[0].Tuples(), oldRows) {
				t.Fatalf("step %d: a tree held across the mutation changed", step)
			}
			if !reflect.DeepEqual(snap, snapCopy) {
				t.Fatalf("step %d: a Tuples snapshot held across the mutation changed", step)
			}
			stored := m.stored()
			if r.Len() != len(stored) {
				t.Fatalf("step %d: Len = %d, model has %d", step, r.Len(), len(stored))
			}
			if got, want := r.ColStats(), planner.Collect(stored, arity); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: ColStats = %+v, planner.Collect = %+v", step, got, want)
			}
			// Ask for some of the orders only, so that others fall
			// several batches behind before they are next merged.
			for _, perm := range perms {
				if rng.Intn(3) == 0 {
					continue
				}
				trees, _, err := r.IndexesFor([][]int{perm})
				if err != nil {
					t.Fatal(err)
				}
				checkTree(t, rng, trees[0], m, perm, domain)
			}
		}
		if reltree.Merges() == merges {
			t.Fatal("no index was ever merged forward")
		}
	})
}

func identityPerm(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	return perm
}
