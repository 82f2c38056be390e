package catalog

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"minesweeper"
	"minesweeper/internal/reltree"
	"minesweeper/internal/storage"
)

// backends are the storage configurations every suite test of this
// file runs under, as subtests: "memory"; "durable", a WAL in a temp
// directory with a tiny compaction threshold so snapshot rotation
// happens mid-test; and "faulty", the fault-injection backend layered on
// top with a benign chaos script (fail-soft compaction errors plus op
// delays — faults the suite must survive without any test changing its
// expectations).
var backends = []string{"memory", "durable", "faulty"}

func eachBackend(t *testing.T, test func(t *testing.T, backend string)) {
	for _, backend := range backends {
		t.Run(backend, func(t *testing.T) { test(t, backend) })
	}
}

func newCatalog(t testing.TB, backend string) *Catalog {
	t.Helper()
	if backend == "memory" {
		return New()
	}
	var b storage.Backend
	db, err := storage.OpenDurable(t.TempDir(), storage.Options{CompactMinBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	b = db
	if backend == "faulty" {
		f, err := storage.NewFaulty(db, "compact@1/2=err; sync@1/3=delay:100us; append@1/7=delay:50us")
		if err != nil {
			t.Fatal(err)
		}
		b = f
	}
	c, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func mustCreate(t *testing.T, c *Catalog, name string, vars []string, tuples [][]int) *minesweeper.Relation {
	t.Helper()
	r, err := c.Create(name, vars, tuples)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCatalogCRUD(t *testing.T) { eachBackend(t, testCatalogCRUD) }

func testCatalogCRUD(t *testing.T, backend string) {
	c := newCatalog(t, backend)
	mustCreate(t, c, "R", []string{"A", "B"}, [][]int{{1, 2}, {2, 3}})
	mustCreate(t, c, "S", []string{"B", "C"}, [][]int{{2, 5}})

	if _, err := c.Create("R", []string{"X"}, nil); err == nil {
		t.Fatal("duplicate Create succeeded")
	}
	if _, err := c.Create("T", []string{"X", "X"}, nil); err == nil {
		t.Fatal("repeated vars accepted")
	}
	if got := c.Names(); !reflect.DeepEqual(got, []string{"R", "S"}) {
		t.Fatalf("Names = %v", got)
	}

	info, err := c.Insert("R", []int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if info.Tuples != 3 || info.Epoch != 1 {
		t.Fatalf("after insert: info=%+v, want 3 tuples at epoch 1", info)
	}
	n, info, err := c.Delete("R", []int{1, 2}, []int{9, 9})
	if err != nil || n != 1 {
		t.Fatalf("Delete = %d, %v; want 1, nil", n, err)
	}
	if info.Epoch != 2 {
		t.Fatalf("epoch after delete = %d, want 2", info.Epoch)
	}
	// No-op delete must not bump the epoch (keeps warm paths warm).
	if n, info, _ = c.Delete("R", []int{9, 9}); n != 0 {
		t.Fatalf("no-op delete removed %d", n)
	}
	if info.Epoch != 2 {
		t.Fatalf("epoch after no-op delete = %d, want 2", info.Epoch)
	}

	if _, err := c.Insert("missing", []int{1}); err == nil {
		t.Fatal("Insert on unknown relation succeeded")
	}
	if err := c.Drop("S"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("S"); ok {
		t.Fatal("S still reachable after Drop")
	}
	if err := c.Drop("S"); err == nil {
		t.Fatal("double Drop succeeded")
	}
}

func TestCatalogLoadDumpRoundTrip(t *testing.T) { eachBackend(t, testCatalogLoadDumpRoundTrip) }

func testCatalogLoadDumpRoundTrip(t *testing.T, backend string) {
	c := newCatalog(t, backend)
	src := "# edges\nE: A B\n1 2\n2 3\n3 1\n"
	info, err := c.Load(strings.NewReader(src), "e.rel")
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "E" || info.Tuples != 3 || info.Epoch != 0 {
		t.Fatalf("Load info = %+v", info)
	}
	var buf bytes.Buffer
	if err := c.Dump(&buf, "E"); err != nil {
		t.Fatal(err)
	}
	c2 := newCatalog(t, backend)
	if _, err := c2.Load(strings.NewReader(buf.String()), "roundtrip"); err != nil {
		t.Fatal(err)
	}
	r1, _ := c.Get("E")
	r2, _ := c2.Get("E")
	if !reflect.DeepEqual(r1.Tuples(), r2.Tuples()) {
		t.Fatal("dump/load round trip diverges")
	}

	// Reload over an existing name replaces in place and bumps the epoch.
	info, err = c.Load(strings.NewReader("E: A B\n7 8\n"), "reload")
	if err != nil {
		t.Fatal(err)
	}
	if info.Tuples != 1 || info.Epoch != 1 {
		t.Fatalf("reload info = %+v, want 1 tuple at epoch 1", info)
	}
	if again, _ := c.Get("E"); again != r1 {
		t.Fatal("reload must keep the relation identity (bound queries stay attached)")
	}
	// Arity mismatch is rejected.
	if _, err := c.Load(strings.NewReader("E: A B C\n1 2 3\n"), "badarity"); err == nil {
		t.Fatal("arity-changing reload succeeded")
	}
}

// TestCatalogMutationVisibleToPreparedQueries is the PR's acceptance
// criterion: mutate a cataloged relation after queries were prepared
// against it, and the next execution of every bound PreparedQuery must
// reflect the new data with no caller-visible re-prepare, while
// executions against unmutated relations do zero index rebuilds.
func TestCatalogMutationVisibleToPreparedQueries(t *testing.T) {
	eachBackend(t, testCatalogMutationVisibleToPreparedQueries)
}

func testCatalogMutationVisibleToPreparedQueries(t *testing.T, backend string) {
	c := newCatalog(t, backend)
	mustCreate(t, c, "R", []string{"A", "B"}, [][]int{{1, 2}, {2, 3}})
	mustCreate(t, c, "S", []string{"B", "C"}, [][]int{{2, 5}, {3, 7}})
	mustCreate(t, c, "T", []string{"C", "D"}, [][]int{{5, 1}, {7, 2}})

	q1, err := c.Query("R(A,B), S(B,C)")
	if err != nil {
		t.Fatal(err)
	}
	q2, err := c.Query("S(B,C), T(C,D)")
	if err != nil {
		t.Fatal(err)
	}
	pq1, err := q1.Prepare(nil)
	if err != nil {
		t.Fatal(err)
	}
	pq2, err := q2.Prepare(nil)
	if err != nil {
		t.Fatal(err)
	}

	res, err := pq1.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 2 {
		t.Fatalf("initial q1 result: %v", res.Tuples)
	}

	// Warm executions of both queries: zero rebuilds.
	before := reltree.Builds()
	if _, err := pq1.Execute(); err != nil {
		t.Fatal(err)
	}
	if _, err := pq2.Execute(); err != nil {
		t.Fatal(err)
	}
	if got := reltree.Builds(); got != before {
		t.Fatalf("warm executions rebuilt %d indexes", got-before)
	}

	// Mutate R only. Both prepared queries keep working without a
	// caller-visible re-prepare; pq1 sees the new data.
	if _, err := c.Insert("R", []int{9, 2}); err != nil {
		t.Fatal(err)
	}
	res, err = pq1.Execute()
	if err != nil {
		t.Fatal(err)
	}
	want := 3 // (1,2,5), (9,2,5) via B=2 plus (2,3,7) via B=3
	if len(res.Tuples) != want {
		t.Fatalf("after insert: %d tuples %v, want %d", len(res.Tuples), res.Tuples, want)
	}

	// pq2 binds only unmutated relations: still zero rebuilds.
	before = reltree.Builds()
	if _, err := pq2.Execute(); err != nil {
		t.Fatal(err)
	}
	if got := reltree.Builds(); got != before {
		t.Fatalf("execution over unmutated relations rebuilt %d indexes", got-before)
	}

	// Deleting through the catalog is equally transparent.
	if n, _, err := c.Delete("R", []int{9, 2}); err != nil || n != 1 {
		t.Fatalf("Delete = %d, %v", n, err)
	}
	res, err = pq1.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 2 {
		t.Fatalf("after delete: %v", res.Tuples)
	}

	// Once re-bound, repeated executions are warm again.
	before = reltree.Builds()
	if _, err := pq1.Execute(); err != nil {
		t.Fatal(err)
	}
	if got := reltree.Builds(); got != before {
		t.Fatalf("re-bound execution rebuilt %d indexes", got-before)
	}
}

// TestCatalogConcurrentMutationAndExecution runs prepared queries from
// several goroutines while others mutate the underlying relation — the
// race detector must stay quiet, every execution must succeed, and
// every result must be consistent with some epoch of the data.
func TestCatalogConcurrentMutationAndExecution(t *testing.T) {
	eachBackend(t, testCatalogConcurrentMutationAndExecution)
}

func testCatalogConcurrentMutationAndExecution(t *testing.T, backend string) {
	c := newCatalog(t, backend)
	base := [][]int{{1, 2}, {2, 3}, {3, 4}}
	mustCreate(t, c, "R", []string{"A", "B"}, base)
	mustCreate(t, c, "S", []string{"B", "C"}, [][]int{{2, 1}, {3, 1}, {4, 1}, {5, 1}})

	q, err := c.Query("R(A,B), S(B,C)")
	if err != nil {
		t.Fatal(err)
	}
	pq, err := q.Prepare(nil)
	if err != nil {
		t.Fatal(err)
	}

	const (
		executors = 4
		rounds    = 50
	)
	var wg sync.WaitGroup
	errc := make(chan error, executors+1)

	wg.Add(1)
	go func() { // mutator: churn tuple (10+i, 5) in and out of R
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			tup := []int{10 + i, 5}
			if _, err := c.Insert("R", tup); err != nil {
				errc <- err
				return
			}
			if _, _, err := c.Delete("R", tup); err != nil {
				errc <- err
				return
			}
		}
	}()
	for g := 0; g < executors; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var pq2 *minesweeper.PreparedQuery
				if i%10 == 0 { // occasionally re-prepare from scratch too
					fresh, err := q.Prepare(nil)
					if err != nil {
						errc <- fmt.Errorf("executor %d: %v", g, err)
						return
					}
					pq2 = fresh
				} else {
					pq2 = pq
				}
				res, err := pq2.Execute()
				if err != nil {
					errc <- fmt.Errorf("executor %d: %v", g, err)
					return
				}
				// Every valid state joins the 3 base tuples; the churned
				// tuple adds at most one more.
				if n := len(res.Tuples); n < 3 || n > 4 {
					errc <- fmt.Errorf("executor %d: %d tuples, want 3 or 4", g, n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Quiesced: final contents match the base data again.
	res, err := pq.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 3 {
		t.Fatalf("final result %v, want the 3 base joins", res.Tuples)
	}
}
