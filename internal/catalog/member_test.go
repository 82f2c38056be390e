package catalog

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"minesweeper/internal/storage"
)

// Replicated-log coverage: a catalog logs every record to R members and
// holds its relations once. The furthest-along member wins at open and
// the others are compacted to it; a member that misses a record its
// siblings accepted is marked down while the mutation succeeds; with no
// member accepting, nothing is applied (the R = 1 contract the fault
// sweeps in fault_test.go pin).

func openDurable(t *testing.T, dir string) storage.Backend {
	t.Helper()
	d, err := storage.OpenDurable(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func openMembers(t *testing.T, members ...storage.Backend) *Catalog {
	t.Helper()
	c, err := Open(members...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestMemberElection: two member directories at different progress open
// to the furthest one — whichever position it holds — and the laggard,
// reopened alone afterwards, holds the same state.
func TestMemberElection(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	c := openMembers(t, openDurable(t, dirs[0]), openDurable(t, dirs[1]))
	mustCreate(t, c, "R", []string{"A", "B"}, [][]int{{1, 2}, {2, 3}})
	mustCreate(t, c, "S", []string{"B", "C"}, [][]int{{2, 5}})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Member 1 runs ahead alone: more epochs, a new relation, a query.
	ahead := openMembers(t, openDurable(t, dirs[1]))
	if _, err := ahead.Insert("R", []int{7, 2}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ahead.Delete("S", []int{2, 5}); err != nil {
		t.Fatal(err)
	}
	mustCreate(t, ahead, "T", []string{"C"}, [][]int{{9}})
	if err := ahead.PutQueryDef(storage.QueryDef{Name: "rs", Query: "R(A,B), S(B,C)"}); err != nil {
		t.Fatal(err)
	}
	if err := ahead.Close(); err != nil {
		t.Fatal(err)
	}
	want := openMembers(t, openDurable(t, dirs[1]))
	defer want.Close()

	c = openMembers(t, openDurable(t, dirs[0]), openDurable(t, dirs[1]))
	if err := sameCatalogState(c, want); err != nil {
		t.Fatalf("opened over a laggard and a leader: %v", err)
	}
	if got := c.Primary(0); got != 0 {
		t.Fatalf("primary = %d at open, want 0 (the lowest live member)", got)
	}
	for j, m := range c.LogStats()[0].Members {
		if m.Err != nil {
			t.Fatalf("member %d down after open: %v", j, m.Err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	laggard := openMembers(t, openDurable(t, dirs[0]))
	defer laggard.Close()
	if err := sameCatalogState(laggard, want); err != nil {
		t.Fatalf("laggard reopened alone: %v", err)
	}
}

// TestMemberMissingRecordIsMarkedDown: a member that fails to take a
// record its sibling accepted is marked down, the mutation succeeds and
// the primary moves off it; its reopen brings it back in sync as a
// follower. When no member accepts, nothing is applied and no member is
// newly blamed.
func TestMemberMissingRecordIsMarkedDown(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	f, err := storage.NewFaulty(openDurable(t, dirs[0]), "append@2=enospc")
	if err != nil {
		t.Fatal(err)
	}
	c := openMembers(t, f, openDurable(t, dirs[1]))
	rel := mustCreate(t, c, "R", []string{"A", "B"}, [][]int{{1, 2}})
	if _, err := c.Insert("R", []int{3, 4}); err != nil {
		t.Fatalf("insert with one member accepting: %v", err)
	}
	if rel.Len() != 2 || rel.Epoch() != 1 {
		t.Fatalf("R holds %d tuples at epoch %d, want 2 at 1", rel.Len(), rel.Epoch())
	}
	ms := c.LogStats()[0].Members
	if ms[0].Err == nil || ms[1].Err != nil || !ms[1].Primary {
		t.Fatalf("members after the miss = %+v, want 0 down and 1 primary", ms)
	}
	if c.Failovers() != 1 || c.Healthy() != nil {
		t.Fatalf("failovers = %d, healthy = %v; want 1, nil", c.Failovers(), c.Healthy())
	}
	if err := c.ReopenMember(0, 0, func() (storage.Backend, error) { return storage.OpenDurable(dirs[0], storage.Options{}) }); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Get("R"); got != rel {
		t.Fatal("reopening a member changed which object R is")
	}
	if ms := c.LogStats()[0].Members; ms[0].Err != nil || c.Primary(0) != 1 {
		t.Fatalf("after reopen: members %+v, primary %d; want all live, 1 still primary", ms, c.Primary(0))
	}
	if _, err := c.Insert("R", []int{5, 6}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for j, dir := range dirs {
		alone := openMembers(t, openDurable(t, dir))
		if r, ok := alone.Get("R"); !ok || r.Len() != 3 || r.Epoch() != 2 {
			t.Fatalf("member %d alone recovers R = %v, want 3 tuples at epoch 2", j, r)
		}
		alone.Close()
	}

	// Both members refuse the same record: nothing applied, nothing
	// newly marked down, and with both poisoned the catalog is read-only.
	var fs [2]*storage.Faulty
	for j := range fs {
		if fs[j], err = storage.NewFaulty(openDurable(t, t.TempDir()), "append@2=enospc"); err != nil {
			t.Fatal(err)
		}
	}
	c = openMembers(t, fs[0], fs[1])
	defer c.Close()
	rel = mustCreate(t, c, "R", []string{"A", "B"}, [][]int{{1, 2}})
	if _, err := c.Insert("R", []int{3, 4}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("insert no member accepted = %v, want ErrReadOnly", err)
	}
	if rel.Len() != 1 || rel.Epoch() != 0 || c.Failovers() != 0 || c.Primary(0) != 0 {
		t.Fatalf("after a refused record: %d tuples at epoch %d, %d failovers, primary %d", rel.Len(), rel.Epoch(), c.Failovers(), c.Primary(0))
	}
	if c.Healthy() == nil {
		t.Fatal("Healthy() = nil with every member poisoned")
	}
}

// TestFaultSweepSecondMemberTakesOver replays the fault sweep's script
// with a healthy second member beside the faulty one: wherever the
// fault lands, no mutation fails, the faulty member is marked down, and
// the healthy member's log alone recovers the full final state.
func TestFaultSweepSecondMemberTakesOver(t *testing.T) {
	script := genScript(rand.New(rand.NewSource(7)), 40)
	total := probeAppendCount(t, script)
	for k := 1; k <= total; k += 3 {
		t.Run(fmt.Sprintf("append@%d", k), func(t *testing.T) {
			f, err := storage.NewFaulty(openDurable(t, t.TempDir()), fmt.Sprintf("append@%d=torn:11", k))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			c := openMembers(t, f, openDurable(t, dir))
			model := New()
			for i, op := range script {
				if err := applyOp(c, op); err != nil {
					t.Fatalf("op %d %s %s: %v", i, op.kind, op.name, err)
				}
				if err := applyOp(model, op); err != nil {
					t.Fatal(err)
				}
			}
			if ms := c.LogStats()[0].Members; ms[0].Err == nil || ms[1].Err != nil || c.Primary(0) != 1 {
				t.Fatalf("members after the fault = %+v", ms)
			}
			c.Close()
			recovered := openMembers(t, openDurable(t, dir))
			defer recovered.Close()
			if err := sameCatalogState(recovered, model); err != nil {
				t.Fatalf("healthy member's log: %v", err)
			}
		})
	}
}
