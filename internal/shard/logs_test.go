package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"minesweeper/internal/catalog"
	"minesweeper/internal/relio"
	"minesweeper/internal/rows"
	"minesweeper/internal/storage"
)

// Shards are logs, not copies: a relation is held once in memory at any
// shard count, a rewrite that reaches only some shard logs leaves memory
// at what the logs durably hold, and random histories — abandoned and
// recovered at random points — keep matching a reference model.

// TestOneCopyAtEveryShardCount: creating a 200k-row relation costs the
// same heap at 2 and 4 shards as at one, within 25%: the shard logs
// hold no rows in memory.
func TestOneCopyAtEveryShardCount(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; budgets measured without -race")
	}
	const n = 200000
	tuples := make([][]int, n)
	for i := range tuples {
		tuples[i] = []int{i, (i * 7919) % n}
	}
	heap := func(shards int) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c := New(shards)
		if _, err := c.Create("R", []string{"a", "b"}, tuples); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(c)
		return float64(after.HeapAlloc) - float64(before.HeapAlloc)
	}
	one := heap(1)
	for _, shards := range []int{2, 4} {
		if got := heap(shards); got > 1.25*one {
			t.Errorf("a %d-row relation holds %.1f MB of heap at %d shards, %.1f MB at one", n, got/1e6, shards, one/1e6)
		}
	}
}

// TestPartialBroadcast: at 2 shards, shard 1's log refuses a Replace, a
// Load, a ForcePartition, a Drop or an Insert after shard 0's took it.
// The caller gets shard 1's read-only error, and memory is what a
// restart recovers. A rewrite that reached one log leaves the relation
// out of the manifest and refusing writes; an insert leaves it writable
// where a live log takes the rows. After a restart the relation is
// partitioned, in shards.json and writable.
func TestPartialBroadcast(t *testing.T) {
	rT, _ := seedTuples(40)
	var spread [][]int // rows routed to both shards under any partition of rT
	for i := 0; i < 40; i++ {
		spread = append(spread, []int{i, (11*i + 3) % 50})
	}
	for _, replicas := range []int{1, 2} {
		for _, tc := range []struct {
			name    string
			rewrite bool
			op      func(c *Catalog) error
		}{
			{"replace", true, func(c *Catalog) error { _, err := c.Replace("R", rT[:20]); return err }},
			{"load", true, func(c *Catalog) error {
				_, err := c.Load(strings.NewReader("R: x y\n1 2\n30 40\n7 9\n45 3\n"), "test")
				return err
			}},
			{"force-partition", true, func(c *Catalog) error {
				return c.ForcePartition("R", Partition{Column: 1, Attr: "b", Mode: ModeRange, Splits: []int{25}})
			}},
			{"drop", true, func(c *Catalog) error { return c.Drop("R") }},
			{"insert", false, func(c *Catalog) error { _, err := c.Insert("R", spread...); return err }},
		} {
			t.Run(fmt.Sprintf("%s/r%d", tc.name, replicas), func(t *testing.T) {
				dir := t.TempDir()
				// Every replica of shard 1 refuses its second record: the
				// one after R's create.
				c, err := OpenWith(dir, 2, replicas, func(i, j int) (storage.Backend, error) {
					d, err := storage.OpenDurable(ReplicaDir(dir, i, j), storage.Options{})
					if err != nil || i == 0 {
						return d, err
					}
					return storage.NewFaulty(d, "append@2=err")
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := c.Create("R", []string{"a", "b"}, rT); err != nil {
					t.Fatal(err)
				}
				p, _ := c.PartitionOf("R")
				if b := p.Split(spread, 2); len(b[0]) == 0 || len(b[1]) == 0 {
					t.Fatalf("the insert batch does not reach both shards under %+v", p)
				}
				err = tc.op(c)
				if !errors.Is(err, catalog.ErrReadOnly) || !strings.HasPrefix(err.Error(), "shard 1: no healthy replica:") {
					t.Fatalf("%s = %v, want shard 1's read-only error", tc.name, err)
				}
				if e := c.Epochs("R"); e[0] == 0 && tc.name != "drop" {
					t.Fatalf("shard 0 did not take the %s: epochs %v", tc.name, e)
				}
				rel, ok := c.Get("R")
				if !ok {
					t.Fatal("R left memory although shard 1 still logs it")
				}
				_, routed := c.PartitionOf("R")
				inManifest := manifestHas(t, dir, "R")
				var toShard0 [][]int
				for _, row := range spread {
					if p.Route(row[p.Column], 2) == 0 {
						toShard0 = append(toShard0, row)
					}
				}
				_, werr := c.Insert("R", toShard0...)
				if tc.rewrite {
					if routed || inManifest || werr == nil || !strings.Contains(werr.Error(), "until a restart repartitions it") {
						t.Fatalf("after a partial %s: partitioned %v, in shards.json %v, insert = %v; want none, none, refused",
							tc.name, routed, inManifest, werr)
					}
				} else {
					if !routed || !inManifest || werr != nil {
						t.Fatalf("after a partial insert: partitioned %v, in shards.json %v, insert on shard 0 = %v", routed, inManifest, werr)
					}
					if _, err := c.Insert("R", spread...); !errors.Is(err, catalog.ErrReadOnly) {
						t.Fatalf("insert reaching the dead shard = %v, want read-only", err)
					}
				}
				want := relState(c, "R")
				if got, _ := c.Get("R"); got != rel {
					t.Fatal("R changed identity")
				}
				c.Close()

				c2, err := OpenReplicated(dir, 2, replicas, storage.Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer c2.Close()
				if got := relState(c2, "R"); !reflect.DeepEqual(got, want) {
					t.Fatalf("memory before the restart %+v, recovered %+v", want, got)
				}
				if _, ok := c2.PartitionOf("R"); !ok || !manifestHas(t, dir, "R") {
					t.Fatal("R is not partitioned, or not in shards.json, after the restart")
				}
				if _, err := c2.Insert("R", spread...); err != nil {
					t.Fatalf("insert after the restart: %v", err)
				}
				checkReplicasDurable(t, c2, dir)
			})
		}
	}
}

// relationState is a relation's binding and rows, as the
// partial-broadcast test compares memory with what a restart recovers.
type relationState struct {
	Vars   []string
	Tuples [][]int
}

func relState(c *Catalog, name string) relationState {
	rel, ok := c.Get(name)
	if !ok {
		return relationState{}
	}
	vars, _ := c.Vars(name)
	return relationState{vars, rel.Tuples()}
}

func manifestHas(t *testing.T, dir, name string) bool {
	t.Helper()
	m, err := readManifest(filepath.Join(dir, manifestName))
	if err != nil || m == nil {
		t.Fatalf("reading shards.json: %v", err)
	}
	_, ok := m.Relations[name]
	return ok
}

// refRel is the model of one relation: its binding and its rows as a
// multiset.
type refRel struct {
	vars []string
	rows map[[2]int]int
}

// TestShardModel: seeded random histories of Create, Insert, Delete,
// Replace, Load, ForcePartition and Drop over durable shard logs, with
// the store abandoned without Close and reopened at random steps. After
// every step every relation's rows, binding and size match a
// map-of-multisets reference; a reopen recovers exactly the relations,
// epochs included, that were served; and R(A,B), S(B,C) runs sliced
// whenever R is range-partitioned on the column its GAO leads with.
func TestShardModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, shards := range []int{1, 2, 4} {
			for _, replicas := range []int{1, 2} {
				t.Run(fmt.Sprintf("seed%d-%dx%d", seed, shards, replicas), func(t *testing.T) {
					checkModel(t, seed, shards, replicas)
				})
			}
		}
	}
}

func checkModel(t *testing.T, seed int64, shards, replicas int) {
	rng := rand.New(rand.NewSource(seed*100 + int64(shards*10+replicas)))
	dir := t.TempDir()
	open := func() *Catalog {
		c, err := OpenReplicated(dir, shards, replicas, storage.Options{CompactMinBytes: 512})
		if err != nil {
			t.Fatalf("seed %d: open: %v", seed, err)
		}
		return c
	}
	c := open()
	defer func() { c.Close() }()
	ref := map[string]*refRel{}
	names := []string{"R", "S"}
	bindings := map[string][][]string{"R": {{"a", "b"}, {"p", "q"}}, "S": {{"b", "c"}, {"q", "r"}}}
	batch := func(max int) [][]int {
		out := make([][]int, rng.Intn(max+1))
		for i := range out {
			out[i] = []int{rng.Intn(30), rng.Intn(30)}
		}
		return out
	}
	set := func(name string, vars []string, tuples [][]int) {
		r := &refRel{vars: vars, rows: map[[2]int]int{}}
		for _, tup := range tuples {
			r.rows[[2]int{tup[0], tup[1]}]++
		}
		ref[name] = r
	}
	fail := func(step int, what string, err error) {
		t.Helper()
		t.Fatalf("seed %d, %dx%d, step %d: %s: %v", seed, shards, replicas, step, what, err)
	}
	for step := 0; step < 100; step++ {
		name := names[rng.Intn(len(names))]
		r, exists := ref[name]
		var err error
		op := rng.Intn(9)
		switch op {
		case 0: // create
			vars := bindings[name][0]
			tuples := batch(20)
			_, err = c.Create(name, vars, tuples)
			if !exists && err == nil {
				set(name, vars, tuples)
			}
		case 1, 2: // insert
			tuples := batch(8)
			_, err = c.Insert(name, tuples...)
			if exists && err == nil {
				for _, tup := range tuples {
					r.rows[[2]int{tup[0], tup[1]}]++
				}
			}
		case 3: // delete: some stored rows, some random
			tuples := batch(4)
			if exists {
				for row := range r.rows {
					if rng.Intn(3) == 0 {
						tuples = append(tuples, []int{row[0], row[1]})
					}
				}
			}
			_, _, err = c.Delete(name, tuples...)
			if exists && err == nil {
				for _, tup := range tuples {
					delete(r.rows, [2]int{tup[0], tup[1]})
				}
			}
		case 4: // replace
			tuples := batch(20)
			_, err = c.Replace(name, tuples)
			if exists && err == nil {
				set(name, r.vars, tuples)
			}
		case 5: // load: create or replace, under either binding
			vars := bindings[name][rng.Intn(2)]
			tuples := batch(20)
			var text strings.Builder
			relio.WriteRelation(&text, &relio.Relation{Name: name, Vars: vars, Tuples: tuples})
			_, err = c.Load(strings.NewReader(text.String()), "model")
			if err == nil {
				set(name, vars, tuples)
			}
		case 6: // force a partition
			p := Partition{Column: rng.Intn(2), Mode: ModeHash}
			if shards > 1 && rng.Intn(2) == 0 {
				p.Mode = ModeRange
				for v := rng.Intn(8); len(p.Splits) < shards-1; v += 1 + rng.Intn(8) {
					p.Splits = append(p.Splits, v)
				}
			}
			err = c.ForcePartition(name, p)
		case 7: // drop
			err = c.Drop(name)
			if exists && err == nil {
				delete(ref, name)
			}
		case 8: // abandon without Close and recover
			want := c.Relations()
			c = open()
			if got := c.Relations(); !reflect.DeepEqual(got, want) {
				fail(step, "reopen", fmt.Errorf("recovered %+v, served %+v", got, want))
			}
		}
		// Every op on an existing relation succeeds (a create of an
		// existing name fails), every op on a missing one fails (but a
		// load); a reopen has no error.
		if wantErr := op != 8 && op != 5 && (exists == (op == 0)); (err != nil) != wantErr {
			fail(step, fmt.Sprintf("op %d on %s (exists %v)", op, name, exists), err)
		}
		if err := sameAsModel(c, ref); err != nil {
			fail(step, fmt.Sprintf("after op %d on %s", op, name), err)
		}
		if err := checkSliced(c, ref); err != nil {
			fail(step, "explain", err)
		}
	}
}

// sameAsModel compares the catalog with the reference.
func sameAsModel(c *Catalog, ref map[string]*refRel) error {
	infos := c.Relations()
	if len(infos) != len(ref) {
		return fmt.Errorf("%d relations, model has %d", len(infos), len(ref))
	}
	for _, info := range infos {
		r, ok := ref[info.Name]
		if !ok {
			return fmt.Errorf("relation %s is not in the model", info.Name)
		}
		var want [][]int
		for row, k := range r.rows {
			for ; k > 0; k-- {
				want = append(want, []int{row[0], row[1]})
			}
		}
		slices.SortFunc(want, rows.Compare)
		rel, _ := c.Get(info.Name)
		got := rel.Tuples()
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%s holds %v, model %v", info.Name, got, want)
		}
		if !reflect.DeepEqual(info.Vars, r.vars) || info.Tuples != len(want) || info.Arity != 2 {
			return fmt.Errorf("%s described as %+v, model binds %v over %d rows", info.Name, info, r.vars, len(want))
		}
	}
	return nil
}

// checkSliced: with R and S present and R range-partitioned on the
// column its atom binds to the GAO's leading attribute, the run of
// R(A,B), S(B,C) is sliced, not gathered; one shard has no annotation.
func checkSliced(c *Catalog, ref map[string]*refRel) error {
	if ref["R"] == nil || ref["S"] == nil {
		return nil
	}
	q, err := c.Query("R(A,B), S(B,C)")
	if err != nil {
		return err
	}
	p, err := c.Prepare(q, nil)
	if err != nil {
		return err
	}
	ex := p.Explain()
	if c.Shards() == 1 {
		if ex.Partitions != nil {
			return fmt.Errorf("one shard annotated %v", ex.Partitions)
		}
		return nil
	}
	part, ok := c.PartitionOf("R")
	if ok && part.Mode == ModeRange && []string{"A", "B"}[part.Column] == ex.GAO[0] &&
		(len(ex.Partitions) != 1 || ex.Partitions[0] == "gathered") {
		return fmt.Errorf("R is %+v under GAO %v, run annotated %v", part, ex.GAO, ex.Partitions)
	}
	return nil
}
