package catalog

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"minesweeper/internal/storage"
)

// mutOp is one step of a randomized mutation script, replayed against
// both a faulty durable catalog and an in-memory model catalog.
type mutOp struct {
	kind   string // create | insert | delete | replace | drop | putquery | dropquery
	name   string
	tuples [][]int
}

// genScript builds a deterministic pseudo-random mutation script that
// is valid step by step (creates before inserts, drops only what
// exists), so every op reaches the storage append — the boundary the
// fault sweep targets.
func genScript(rng *rand.Rand, n int) []mutOp {
	names := []string{"R", "S", "T"}
	live := map[string]bool{}
	queries := map[string]bool{}
	randTuples := func() [][]int {
		tuples := make([][]int, 1+rng.Intn(3))
		for i := range tuples {
			tuples[i] = []int{rng.Intn(50), rng.Intn(50)}
		}
		return tuples
	}
	var script []mutOp
	for len(script) < n {
		name := names[rng.Intn(len(names))]
		switch rng.Intn(8) {
		case 0, 1:
			if !live[name] {
				live[name] = true
				script = append(script, mutOp{kind: "create", name: name, tuples: randTuples()})
			}
		case 2, 3:
			if live[name] {
				script = append(script, mutOp{kind: "insert", name: name, tuples: randTuples()})
			}
		case 4:
			if live[name] {
				script = append(script, mutOp{kind: "delete", name: name, tuples: randTuples()})
			}
		case 5:
			if live[name] {
				script = append(script, mutOp{kind: "replace", name: name, tuples: randTuples()})
			}
		case 6:
			if live[name] && rng.Intn(3) == 0 {
				delete(live, name)
				script = append(script, mutOp{kind: "drop", name: name})
			}
		case 7:
			qname := "q" + name
			if queries[qname] && rng.Intn(2) == 0 {
				delete(queries, qname)
				script = append(script, mutOp{kind: "dropquery", name: qname})
			} else if live[name] {
				queries[qname] = true
				script = append(script, mutOp{kind: "putquery", name: qname})
			}
		}
	}
	return script
}

// applyOp runs one script step against a catalog. Query definitions
// reference the op's name so put/drop pairs round-trip.
func applyOp(c *Catalog, op mutOp) error {
	switch op.kind {
	case "create":
		_, err := c.Create(op.name, []string{"A", "B"}, op.tuples)
		return err
	case "insert":
		_, err := c.Insert(op.name, op.tuples...)
		return err
	case "delete":
		_, _, err := c.Delete(op.name, op.tuples...)
		return err
	case "replace":
		_, err := c.Replace(op.name, op.tuples)
		return err
	case "drop":
		return c.Drop(op.name)
	case "putquery":
		return c.PutQueryDef(storage.QueryDef{Name: op.name, Query: op.name[1:] + "(A,B)"})
	case "dropquery":
		return c.DropQueryDef(op.name)
	}
	panic("unknown op " + op.kind)
}

// sameCatalogState compares two catalogs' observable state: relation
// descriptions (name, binding, epoch, tuple count), the tuples
// themselves (as multisets — recovery and live mutation may order
// rows differently), and the stored query definitions.
func sameCatalogState(got, want *Catalog) error {
	gi, wi := got.Relations(), want.Relations()
	if !reflect.DeepEqual(gi, wi) {
		return fmt.Errorf("relations %+v, want %+v", gi, wi)
	}
	for _, info := range wi {
		grel, _ := got.Get(info.Name)
		wrel, _ := want.Get(info.Name)
		gt, wt := grel.Tuples(), wrel.Tuples()
		sortTuples(gt)
		sortTuples(wt)
		if !reflect.DeepEqual(gt, wt) && !(len(gt) == 0 && len(wt) == 0) {
			return fmt.Errorf("relation %q tuples diverge", info.Name)
		}
	}
	if gq, wq := got.QueryDefs(), want.QueryDefs(); !reflect.DeepEqual(gq, wq) {
		return fmt.Errorf("query defs %+v, want %+v", gq, wq)
	}
	return nil
}

func sortTuples(t [][]int) {
	sort.Slice(t, func(i, j int) bool {
		for k := range t[i] {
			if t[i][k] != t[j][k] {
				return t[i][k] < t[j][k]
			}
		}
		return false
	})
}

// TestFaultSweepNeverPartiallyApplies drives one randomized mutation
// script while sweeping an injected append failure across every storage
// op position, and checks the crash contract at each position:
//
//   - the catalog never partially applies a mutation — after every op
//     (failed or not) its state equals an in-memory model that applied
//     exactly the successful ops;
//   - the first injected failure flips the catalog into read-only mode
//     and every later mutation fails with ErrReadOnly;
//   - a restart (fresh open of the same directory) recovers exactly the
//     longest durable prefix — the model state again.
func TestFaultSweepNeverPartiallyApplies(t *testing.T) {
	script := genScript(rand.New(rand.NewSource(7)), 40)
	// One position past every append of a fault-free run proves the
	// sweep covered the whole script (that run must inject nothing).
	total := probeAppendCount(t, script)
	for k := 1; k <= total+1; k++ {
		fault := "append@%d=torn:11"
		if k%2 == 0 {
			fault = "append@%d=enospc" // poisons without landing bytes
		}
		faultSpec := fmt.Sprintf(fault, k)
		t.Run(faultSpec, func(t *testing.T) {
			dir := t.TempDir()
			d, err := storage.OpenDurable(dir, storage.Options{})
			if err != nil {
				t.Fatal(err)
			}
			f, err := storage.NewFaulty(d, faultSpec)
			if err != nil {
				t.Fatal(err)
			}
			cat, err := Open(f)
			if err != nil {
				t.Fatal(err)
			}
			model := New()

			poisoned := false
			for i, op := range script {
				err := applyOp(cat, op)
				switch {
				case err == nil:
					if merr := applyOp(model, op); merr != nil {
						t.Fatalf("op %d %s %s: model diverged: %v", i, op.kind, op.name, merr)
					}
					if poisoned && op.kind != "dropquery" {
						// dropquery of an absent name is a no-op that never
						// reaches the backend, so it succeeds even read-only.
						t.Fatalf("op %d %s %s succeeded after poisoning", i, op.kind, op.name)
					}
				case errors.Is(err, ErrReadOnly):
					poisoned = true
				default:
					// A validation failure before the append (the script was
					// generated for the fault-free history, so post-poison
					// steps can reference relations that were never created).
					// Both catalogs are in the same state, so the model must
					// refuse identically — and nothing was applied either way.
					if merr := applyOp(model, op); merr == nil || merr.Error() != err.Error() {
						t.Fatalf("op %d %s %s: catalog failed %q, model %v", i, op.kind, op.name, err, merr)
					}
				}
				if serr := sameCatalogState(cat, model); serr != nil {
					t.Fatalf("after op %d %s %s: %v", i, op.kind, op.name, serr)
				}
			}
			injected := f.Injected()
			cat.Close()
			if injected == 0 {
				if poisoned {
					t.Fatal("catalog poisoned without an injected fault")
				}
				if k <= total {
					t.Fatalf("position %d of %d appends never fired", k, total)
				}
				return // the one position past the script's appends
			}
			if !poisoned {
				t.Fatal("fault injected but no mutation failed")
			}

			// Restart: recovery over the same directory must rebuild the
			// longest durable prefix, which is exactly the model state.
			d2, err := storage.OpenDurable(dir, storage.Options{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			recovered, err := Open(d2)
			if err != nil {
				t.Fatalf("recovering: %v", err)
			}
			defer recovered.Close()
			if serr := sameCatalogState(recovered, model); serr != nil {
				t.Fatalf("recovered state: %v", serr)
			}
		})
	}
}

// probeAppendCount runs the script fault-free once and reports how many
// records it appends — the sweep's upper bound.
func probeAppendCount(t *testing.T, script []mutOp) int {
	t.Helper()
	d, err := storage.OpenDurable(t.TempDir(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Open(d)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, op := range script {
		if err := applyOp(c, op); err != nil {
			t.Fatalf("fault-free %s %s: %v", op.kind, op.name, err)
		}
	}
	return int(c.StorageStats().WALRecords)
}

// TestFaultSweepCompactionFailSoft runs the same script with every
// compaction failing (and a tiny threshold so compaction triggers
// constantly): no mutation may fail, the WAL stays authoritative, and
// recovery still reproduces the full final state.
func TestFaultSweepCompactionFailSoft(t *testing.T) {
	script := genScript(rand.New(rand.NewSource(7)), 40)
	dir := t.TempDir()
	d, err := storage.OpenDurable(dir, storage.Options{CompactMinBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	f, err := storage.NewFaulty(d, "compact@*=err")
	if err != nil {
		t.Fatal(err)
	}
	cat, err := Open(f)
	if err != nil {
		t.Fatal(err)
	}
	model := New()
	for i, op := range script {
		if err := applyOp(cat, op); err != nil {
			t.Fatalf("op %d %s %s under failing compaction: %v", i, op.kind, op.name, err)
		}
		if err := applyOp(model, op); err != nil {
			t.Fatal(err)
		}
	}
	if f.Injected() == 0 {
		t.Fatal("no compaction fault fired; threshold too high for the script")
	}
	if err := cat.Healthy(); err != nil {
		t.Fatalf("Healthy() = %v after fail-soft compaction faults, want nil", err)
	}
	cat.Close()

	d2, err := storage.OpenDurable(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := Open(d2)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if serr := sameCatalogState(recovered, model); serr != nil {
		t.Fatalf("recovered state: %v", serr)
	}
}
