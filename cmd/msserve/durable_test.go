package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"minesweeper/internal/catalog"
	"minesweeper/internal/reltree"
	"minesweeper/internal/shard"
	"minesweeper/internal/storage"
)

// openDurableServer recovers a server from dir the way main does:
// catalog, then restoreQueries.
func openDurableServer(t *testing.T, dir string) *server {
	t.Helper()
	s := newServer(openTestCatalog(t, dir, 1, 1, storage.Options{}, ""))
	if _, failed := s.restoreQueries(); len(failed) > 0 {
		t.Fatalf("restoreQueries: %v", failed)
	}
	return s
}

// TestServerKillAndRestartRecovers is the issue's acceptance test: an
// msserve with -data-dir, killed without any shutdown (the catalog is
// simply abandoned, then garbage is appended to the WAL to simulate a
// record torn mid-write), must come back with all relations, their
// epochs, and every named prepared query — and the recovered prepared
// query must re-plan, serve the same rows, and go warm (zero index
// rebuilds) after its first run.
func TestServerKillAndRestartRecovers(t *testing.T) {
	dir := t.TempDir()
	s := openDurableServer(t, dir)
	wantStatus(t, do(t, s, "POST", "/relations", "R: A B\n1 2\n2 3\n4 1\n"), http.StatusOK)
	wantStatus(t, do(t, s, "POST", "/relations", "S: B C\n2 5\n3 7\n3 9\n"), http.StatusOK)
	wantStatus(t, do(t, s, "POST", "/queries",
		`{"name":"rs","query":"R(A,B), S(B,C)","workers":2}`), http.StatusOK)
	wantStatus(t, do(t, s, "POST", "/relations/R/insert", `{"tuples":[[9,2]]}`), http.StatusOK)
	wantStatus(t, do(t, s, "POST", "/relations/R/delete", `{"tuples":[[1,2]]}`), http.StatusOK)

	rec := do(t, s, "GET", "/relations", "")
	wantStatus(t, rec, http.StatusOK)
	var wantRels []catalog.Info
	if err := json.Unmarshal(rec.Body.Bytes(), &wantRels); err != nil {
		t.Fatal(err)
	}
	wantRun := parseRun(t, do(t, s, "GET", "/queries/rs/run", "").Body)

	// Unclean kill: no Close, no Sync — and a half-written record at the
	// WAL tail.
	wals, err := filepath.Glob(filepath.Join(shard.ReplicaDir(dir, 0, 0), "wal-*.log"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("wal files: %v, %v", wals, err)
	}
	f, err := os.OpenFile(wals[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("#!ms insert R 2 1 00000000\n7 "); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openDurableServer(t, dir)
	rec = do(t, s2, "GET", "/relations", "")
	wantStatus(t, rec, http.StatusOK)
	var gotRels []catalog.Info
	if err := json.Unmarshal(rec.Body.Bytes(), &gotRels); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRels, wantRels) {
		t.Fatalf("recovered relations:\ngot:  %+v\nwant: %+v", gotRels, wantRels)
	}
	if gotRels[0].Name != "R" || gotRels[0].Epoch != 2 {
		t.Fatalf("R's epoch did not survive: %+v", gotRels[0])
	}

	// The prepared query came back by name with its options intact and
	// serves the same rows.
	got := parseRun(t, do(t, s2, "GET", "/queries/rs/run", "").Body)
	if !reflect.DeepEqual(got.tuples, wantRun.tuples) {
		t.Fatalf("recovered query rows %v, want %v", got.tuples, wantRun.tuples)
	}
	if defs := s2.cat.QueryDefs(); len(defs) != 1 || defs[0].Name != "rs" || defs[0].Workers != 2 {
		t.Fatalf("recovered query defs = %+v", defs)
	}

	// Warm-path invariant: the run above rebuilt indexes lazily; another
	// run must build none.
	before := reltree.Builds()
	wantStatus(t, do(t, s2, "GET", "/queries/rs/run", ""), http.StatusOK)
	if builds := reltree.Builds() - before; builds != 0 {
		t.Fatalf("warm re-execution after recovery rebuilt %d indexes", builds)
	}

	// /stats reports the durable backend, including the torn-tail
	// truncation.
	rec = do(t, s2, "GET", "/stats", "")
	wantStatus(t, rec, http.StatusOK)
	var stats struct {
		Storage storage.Stats `json:"storage"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Storage.Mode != "durable" || stats.Storage.RecoveredRelations != 2 ||
		stats.Storage.RecoveredQueries != 1 || stats.Storage.TruncatedBytes == 0 {
		t.Fatalf("storage stats = %+v", stats.Storage)
	}
}

// TestServerDropQueryIsDurable: dropping a registered query must
// persist — a restart must not resurrect it.
func TestServerDropQueryIsDurable(t *testing.T) {
	dir := t.TempDir()
	s := openDurableServer(t, dir)
	wantStatus(t, do(t, s, "POST", "/relations", "R: A B\n1 2\n"), http.StatusOK)
	wantStatus(t, do(t, s, "POST", "/queries", `{"name":"q","query":"R(A,B)"}`), http.StatusOK)
	wantStatus(t, do(t, s, "DELETE", "/queries/q", ""), http.StatusOK)

	s2 := openDurableServer(t, dir)
	wantStatus(t, do(t, s2, "GET", "/queries/q/run", ""), http.StatusNotFound)
	if defs := s2.cat.QueryDefs(); len(defs) != 0 {
		t.Fatalf("dropped query resurrected: %+v", defs)
	}
}

// TestServerRestoreSkipsUnplannableQuery: a persisted definition whose
// relation no longer exists must not block boot; it is skipped and
// reported.
func TestServerRestoreSkipsUnplannableQuery(t *testing.T) {
	dir := t.TempDir()
	c, err := shard.OpenReplicated(dir, 1, 1, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("R", []string{"A", "B"}, [][]int{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := c.PutQueryDef(storage.QueryDef{Name: "q", Query: "R(A,B)"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Drop("R"); err != nil {
		t.Fatal(err)
	}
	c.Close()

	s := newServer(openTestCatalog(t, dir, 1, 1, storage.Options{}, ""))
	restored, failed := s.restoreQueries()
	if restored != 0 || len(failed) != 1 {
		t.Fatalf("restoreQueries = %d restored, %v", restored, failed)
	}
	wantStatus(t, do(t, s, "GET", "/queries/q/run", ""), http.StatusNotFound)
}
