package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"minesweeper/internal/catalog"
	"minesweeper/internal/shard"
	"minesweeper/internal/storage"
)

// storeConfig is one store the serving suite runs over: a backend
// ("memory"; "durable", every mutation through a WAL; "faulty", the WAL
// behind the fault-injection wrapper with a benign chaos script —
// fail-soft compaction errors plus op delays the serving layer must
// absorb) at a shard × replica count. Every row is the same owner type,
// a shard.Catalog; 1×1 is its smallest size, and each replica of each
// shard has its own WAL when the backend is durable.
type storeConfig struct {
	backend          string
	shards, replicas int
}

func (c storeConfig) String() string {
	return fmt.Sprintf("%s-%dx%d", c.backend, c.shards, c.replicas)
}

// eachStore runs a suite test once per store configuration, as
// subtests. No handler expectation may depend on the configuration: the
// sharded stream is byte-identical to the unsharded one, and the suite
// must be oblivious to replication and to benign storage faults.
func eachStore(t *testing.T, test func(t *testing.T, stc storeConfig)) {
	for _, backend := range []string{"memory", "durable", "faulty"} {
		for _, size := range [][2]int{{1, 1}, {4, 1}, {1, 2}, {4, 2}} {
			cfg := storeConfig{backend, size[0], size[1]}
			t.Run(cfg.String(), func(t *testing.T) { test(t, cfg) })
		}
	}
}

// benignChaos is the "faulty" backend's script.
const benignChaos = "compact@1/2=err; sync@1/3=delay:100us; append@1/7=delay:50us"

func newTestCatalog(t testing.TB, stc storeConfig) *shard.Catalog {
	t.Helper()
	if stc.backend == "memory" {
		return shard.NewReplicated(stc.shards, stc.replicas)
	}
	script := ""
	if stc.backend == "faulty" {
		script = benignChaos
	}
	return openTestCatalog(t, t.TempDir(), stc.shards, stc.replicas, storage.Options{CompactMinBytes: 256}, script)
}

// openTestCatalog opens (or recovers) the durable catalog in dir the way
// main does; a non-empty script puts every replica's backend behind the
// fault-injection wrapper running it.
func openTestCatalog(t testing.TB, dir string, shards, replicas int, sopts storage.Options, script string) *shard.Catalog {
	t.Helper()
	c, err := shard.OpenWith(dir, shards, replicas, func(i, j int) (storage.Backend, error) {
		d, err := storage.OpenDurable(shard.ReplicaDir(dir, i, j), sopts)
		if err != nil || script == "" {
			return d, err
		}
		return storage.NewFaulty(d, script)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// do issues one request against the handler and returns the response.
func do(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func wantStatus(t *testing.T, rec *httptest.ResponseRecorder, status int) {
	t.Helper()
	if rec.Code != status {
		t.Fatalf("status = %d, want %d; body: %s", rec.Code, status, rec.Body.String())
	}
}

// runResponse is one parsed NDJSON run: header, tuples, footer.
type runResponse struct {
	header map[string]any
	tuples [][]int
	footer map[string]any
}

func parseRun(t *testing.T, body *bytes.Buffer) runResponse {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(body.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("NDJSON response has %d lines: %q", len(lines), body.String())
	}
	var out runResponse
	if err := json.Unmarshal([]byte(lines[0]), &out.header); err != nil {
		t.Fatalf("bad header line %q: %v", lines[0], err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out.footer); err != nil {
		t.Fatalf("bad footer line %q: %v", lines[len(lines)-1], err)
	}
	if done, _ := out.footer["done"].(bool); !done {
		t.Fatalf("footer not done: %v", out.footer)
	}
	for _, l := range lines[1 : len(lines)-1] {
		var tup []int
		if err := json.Unmarshal([]byte(l), &tup); err != nil {
			t.Fatalf("bad tuple line %q: %v", l, err)
		}
		out.tuples = append(out.tuples, tup)
	}
	if n, _ := out.footer["tuples"].(float64); int(n) != len(out.tuples) {
		t.Fatalf("footer counts %v tuples, body has %d", out.footer["tuples"], len(out.tuples))
	}
	return out
}

// newTestServer loads the R ⋈ S fixture and registers query "rs".
func newTestServer(t *testing.T, stc storeConfig) *server {
	t.Helper()
	s := newServer(newTestCatalog(t, stc))
	wantStatus(t, do(t, s, "POST", "/relations", "R: A B\n1 2\n2 3\n4 1\n"), http.StatusOK)
	wantStatus(t, do(t, s, "POST", "/relations", "S: B C\n2 5\n3 7\n3 9\n"), http.StatusOK)
	wantStatus(t, do(t, s, "POST", "/queries",
		`{"name":"rs","query":"R(A,B), S(B,C)"}`), http.StatusOK)
	return s
}

func TestRelationEndpoints(t *testing.T) { eachStore(t, testRelationEndpoints) }

func testRelationEndpoints(t *testing.T, stc storeConfig) {
	s := newTestServer(t, stc)

	rec := do(t, s, "GET", "/relations", "")
	wantStatus(t, rec, http.StatusOK)
	var infos []catalog.Info
	if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Name != "R" || infos[0].Tuples != 3 {
		t.Fatalf("relations = %+v", infos)
	}

	// Dump round-trips through load.
	rec = do(t, s, "GET", "/relations/R", "")
	wantStatus(t, rec, http.StatusOK)
	if !strings.HasPrefix(rec.Body.String(), "R: A B\n") {
		t.Fatalf("dump = %q", rec.Body.String())
	}
	wantStatus(t, do(t, s, "POST", "/relations", rec.Body.String()), http.StatusOK)

	// Errors: bad body, unknown relation, arity-changing reload.
	wantStatus(t, do(t, s, "POST", "/relations", "no header here"), http.StatusBadRequest)
	wantStatus(t, do(t, s, "GET", "/relations/missing", ""), http.StatusNotFound)
	wantStatus(t, do(t, s, "POST", "/relations", "R: A B C\n1 2 3\n"), http.StatusBadRequest)

	wantStatus(t, do(t, s, "DELETE", "/relations/S", ""), http.StatusOK)
	wantStatus(t, do(t, s, "DELETE", "/relations/S", ""), http.StatusNotFound)
}

func TestQueryRegisterAndRun(t *testing.T) { eachStore(t, testQueryRegisterAndRun) }

func testQueryRegisterAndRun(t *testing.T, stc storeConfig) {
	s := newTestServer(t, stc)

	rec := do(t, s, "GET", "/queries/rs/run", "")
	wantStatus(t, rec, http.StatusOK)
	run := parseRun(t, rec.Body)
	want := [][]int{{1, 2, 5}, {2, 3, 7}, {2, 3, 9}} // over GAO A,B,C? header says
	vars, _ := run.header["vars"].([]any)
	if len(vars) != 3 {
		t.Fatalf("header vars = %v", run.header)
	}
	// The GAO may order variables differently; check tuple count and
	// footer flags instead of exact tuples, then pin one known join row.
	if len(run.tuples) != len(want) {
		t.Fatalf("tuples = %v, want %d rows", run.tuples, len(want))
	}
	if run.footer["timed_out"] != false || run.footer["limited"] != false {
		t.Fatalf("footer = %v", run.footer)
	}

	// limit applies and is reported.
	rec = do(t, s, "GET", "/queries/rs/run?limit=2", "")
	wantStatus(t, rec, http.StatusOK)
	run = parseRun(t, rec.Body)
	if len(run.tuples) != 2 || run.footer["limited"] != true {
		t.Fatalf("limited run: %d tuples, footer %v", len(run.tuples), run.footer)
	}

	// Engine override: every engine returns the same rows.
	for _, eng := range []string{"minesweeper", "leapfrog", "nprr", "yannakakis", "hashplan"} {
		rec = do(t, s, "GET", "/queries/rs/run?engine="+eng, "")
		wantStatus(t, rec, http.StatusOK)
		r := parseRun(t, rec.Body)
		if len(r.tuples) != 3 {
			t.Fatalf("engine %s: tuples = %v", eng, r.tuples)
		}
		if got := r.header["engine"]; got != eng {
			t.Fatalf("engine %s: header says %v", eng, got)
		}
	}
	wantStatus(t, do(t, s, "GET", "/queries/rs/run?engine=nope", ""), http.StatusBadRequest)
	wantStatus(t, do(t, s, "GET", "/queries/missing/run", ""), http.StatusNotFound)

	// Registration errors.
	wantStatus(t, do(t, s, "POST", "/queries", `{"name":"rs","query":"R(A,B)"}`), http.StatusConflict)
	wantStatus(t, do(t, s, "POST", "/queries", `{"name":"bad","query":"Nope(A)"}`), http.StatusBadRequest)
	wantStatus(t, do(t, s, "POST", "/queries", `{"query":"R(A,B)"}`), http.StatusBadRequest)

	// Listing and dropping.
	rec = do(t, s, "GET", "/queries", "")
	wantStatus(t, rec, http.StatusOK)
	if !strings.Contains(rec.Body.String(), `"rs"`) {
		t.Fatalf("queries list = %s", rec.Body.String())
	}
	wantStatus(t, do(t, s, "DELETE", "/queries/rs", ""), http.StatusOK)
	wantStatus(t, do(t, s, "DELETE", "/queries/rs", ""), http.StatusNotFound)
}

// TestMutationFlowsThroughRegisteredQuery is the serving-layer face of
// the PR's acceptance criterion: insert/delete through the HTTP API and
// the already-registered prepared query serves the new data on its next
// run, with no re-registration.
func TestMutationFlowsThroughRegisteredQuery(t *testing.T) {
	eachStore(t, testMutationFlowsThroughRegisteredQuery)
}

func testMutationFlowsThroughRegisteredQuery(t *testing.T, stc storeConfig) {
	s := newTestServer(t, stc)

	run := parseRun(t, do(t, s, "GET", "/queries/rs/run", "").Body)
	if len(run.tuples) != 3 {
		t.Fatalf("initial run: %v", run.tuples)
	}

	rec := do(t, s, "POST", "/relations/R/insert", `{"tuples":[[9,2]]}`)
	wantStatus(t, rec, http.StatusOK)
	var mut map[string]any
	json.Unmarshal(rec.Body.Bytes(), &mut)
	if mut["inserted"] != float64(1) || mut["epoch"] != float64(1) {
		t.Fatalf("insert response = %v", mut)
	}

	run = parseRun(t, do(t, s, "GET", "/queries/rs/run", "").Body)
	if len(run.tuples) != 4 {
		t.Fatalf("after insert: %v", run.tuples)
	}

	rec = do(t, s, "POST", "/relations/R/delete", `{"tuples":[[9,2],[1,2]]}`)
	wantStatus(t, rec, http.StatusOK)
	json.Unmarshal(rec.Body.Bytes(), &mut)
	if mut["deleted"] != float64(2) {
		t.Fatalf("delete response = %v", mut)
	}
	run = parseRun(t, do(t, s, "GET", "/queries/rs/run", "").Body)
	if len(run.tuples) != 2 {
		t.Fatalf("after delete: %v", run.tuples)
	}

	wantStatus(t, do(t, s, "POST", "/relations/missing/insert", `{"tuples":[[1,2]]}`), http.StatusNotFound)
	wantStatus(t, do(t, s, "POST", "/relations/R/insert", `not json`), http.StatusBadRequest)
	wantStatus(t, do(t, s, "POST", "/relations/R/insert", `{"tuples":[[1]]}`), http.StatusBadRequest)
}

// TestDroppedRelationRefusesStaleQuery: a registered query whose
// relation was dropped (or dropped and re-created) must refuse to run
// rather than silently serve the stale pre-drop data.
func TestDroppedRelationRefusesStaleQuery(t *testing.T) {
	eachStore(t, testDroppedRelationRefusesStaleQuery)
}

func testDroppedRelationRefusesStaleQuery(t *testing.T, stc storeConfig) {
	s := newTestServer(t, stc)
	wantStatus(t, do(t, s, "DELETE", "/relations/S", ""), http.StatusOK)
	wantStatus(t, do(t, s, "GET", "/queries/rs/run", ""), http.StatusGone)
	// Re-creating under the same name is a different relation object:
	// still refused until the query is re-registered.
	wantStatus(t, do(t, s, "POST", "/relations", "S: B C\n2 5\n"), http.StatusOK)
	wantStatus(t, do(t, s, "GET", "/queries/rs/run", ""), http.StatusGone)
	wantStatus(t, do(t, s, "DELETE", "/queries/rs", ""), http.StatusOK)
	wantStatus(t, do(t, s, "POST", "/queries", `{"name":"rs","query":"R(A,B), S(B,C)"}`), http.StatusOK)
	run := parseRun(t, do(t, s, "GET", "/queries/rs/run", "").Body)
	if len(run.tuples) != 1 {
		t.Fatalf("re-registered run: %v", run.tuples)
	}
}

func TestAdhocQueryAndTimeout(t *testing.T) { eachStore(t, testAdhocQueryAndTimeout) }

func testAdhocQueryAndTimeout(t *testing.T, stc storeConfig) {
	s := newTestServer(t, stc)

	rec := do(t, s, "POST", "/query", `{"query":"R(A,B), S(B,C)","limit":1,"engine":"leapfrog"}`)
	wantStatus(t, rec, http.StatusOK)
	run := parseRun(t, rec.Body)
	if len(run.tuples) != 1 || run.footer["limited"] != true {
		t.Fatalf("adhoc run: %v footer %v", run.tuples, run.footer)
	}

	// An already-expired deadline dies before the first tuple, so the
	// status line can still carry the outcome: 504, not a 200 stream
	// with an empty page.
	rec = do(t, s, "POST", "/query", `{"query":"R(A,B), S(B,C)","timeout":"1ns"}`)
	wantStatus(t, rec, http.StatusGatewayTimeout)

	wantStatus(t, do(t, s, "POST", "/query", `{"query":"R(A,B)","timeout":"bogus"}`), http.StatusBadRequest)
	wantStatus(t, do(t, s, "POST", "/query", `{}`), http.StatusBadRequest)
}

func TestStatsEndpoint(t *testing.T) { eachStore(t, testStatsEndpoint) }

func testStatsEndpoint(t *testing.T, stc storeConfig) {
	s := newTestServer(t, stc)
	for i := 0; i < 3; i++ {
		wantStatus(t, do(t, s, "GET", "/queries/rs/run", ""), http.StatusOK)
	}
	rec := do(t, s, "GET", "/stats", "")
	wantStatus(t, rec, http.StatusOK)
	var stats map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats["executions"] != float64(3) || stats["tuples_served"] != float64(9) {
		t.Fatalf("stats = %v", stats)
	}
	if stats["relations"] != float64(2) || stats["queries"] != float64(1) {
		t.Fatalf("stats = %v", stats)
	}
	inner, _ := stats["stats"].(map[string]any)
	if inner == nil || inner["Outputs"] != float64(9) {
		t.Fatalf("inner stats = %v", inner)
	}
	if ce, _ := stats["certificate_estimate"].(float64); ce <= 0 {
		t.Fatalf("certificate_estimate = %v", stats["certificate_estimate"])
	}

	// A write followed by a run constructs indexes again; with one shard
	// the cached ones are merged forward, which an operator reads off
	// index_merges_total.
	builds, _ := stats["index_builds_total"].(float64)
	merges, _ := stats["index_merges_total"].(float64)
	wantStatus(t, do(t, s, "POST", "/relations/R/insert", `{"tuples":[[9,2]]}`), http.StatusOK)
	wantStatus(t, do(t, s, "GET", "/queries/rs/run", ""), http.StatusOK)
	if err := json.Unmarshal(do(t, s, "GET", "/stats", "").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	builds2, _ := stats["index_builds_total"].(float64)
	merges2, _ := stats["index_merges_total"].(float64)
	if builds < 1 || builds2 <= builds || merges2 < merges || builds2 < merges2 {
		t.Fatalf("index counters: builds %v -> %v, merges %v -> %v", builds, builds2, merges, merges2)
	}
	if stc.shards == 1 && merges2 <= merges {
		t.Fatalf("index_merges_total stayed at %v across an insert and a run", merges)
	}
}

// TestRunStreamsInOrder pins the NDJSON tuple order to the GAO-lex
// order shared by every engine.
func TestRunStreamsInOrder(t *testing.T) { eachStore(t, testRunStreamsInOrder) }

func testRunStreamsInOrder(t *testing.T, stc storeConfig) {
	s := newTestServer(t, stc)
	var runs [][][]int
	for _, eng := range []string{"minesweeper", "leapfrog"} {
		run := parseRun(t, do(t, s, "GET", fmt.Sprintf("/queries/rs/run?engine=%s", eng), "").Body)
		runs = append(runs, run.tuples)
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatalf("engines disagree:\n%v\n%v", runs[0], runs[1])
	}
	for i := 1; i < len(runs[0]); i++ {
		a, b := runs[0][i-1], runs[0][i]
		for j := range a {
			if a[j] != b[j] {
				if a[j] > b[j] {
					t.Fatalf("tuples out of order: %v before %v", a, b)
				}
				break
			}
		}
	}
}

// TestQueryShapingOverHTTP covers the select/where/constant surface:
// textual clauses in the query expression, the spec-level select/where
// fields, the vars-vs-gao header invariant, and negative limits.
func TestQueryShapingOverHTTP(t *testing.T) { eachStore(t, testQueryShapingOverHTTP) }

func testQueryShapingOverHTTP(t *testing.T, stc storeConfig) {
	s := newTestServer(t, stc)

	// Constants + clauses inside the query expression. R ⋈ S joins to
	// (A,B,C) ∈ {(1,2,5),(2,3,7),(2,3,9)}; B = 3 keeps the last two.
	rec := do(t, s, "POST", "/query", `{"query":"R(A, 3), S(3, C)"}`)
	wantStatus(t, rec, http.StatusOK)
	run := parseRun(t, rec.Body)
	if len(run.tuples) != 2 {
		t.Fatalf("constant query tuples = %v", run.tuples)
	}
	vars, _ := run.header["vars"].([]any)
	if !reflect.DeepEqual(vars, []any{"A", "C"}) {
		t.Fatalf("constant query vars = %v", vars)
	}

	// Aggregates through the expression text.
	rec = do(t, s, "POST", "/query", `{"query":"R(A,B), S(B,C) select B, count(*)"}`)
	wantStatus(t, rec, http.StatusOK)
	run = parseRun(t, rec.Body)
	if !reflect.DeepEqual(run.tuples, [][]int{{2, 1}, {3, 2}}) {
		t.Fatalf("aggregate rows = %v", run.tuples)
	}

	// Spec-level select/where fields.
	rec = do(t, s, "POST", "/query", `{"query":"R(A,B), S(B,C)","select":"C","where":"C >= 7"}`)
	wantStatus(t, rec, http.StatusOK)
	run = parseRun(t, rec.Body)
	if !reflect.DeepEqual(run.tuples, [][]int{{7}, {9}}) {
		t.Fatalf("select/where rows = %v", run.tuples)
	}

	// The header carries both column order and evaluation order.
	rec = do(t, s, "GET", "/queries/rs/run", "")
	run = parseRun(t, rec.Body)
	if _, ok := run.header["gao"].([]any); !ok {
		t.Fatalf("header missing gao: %v", run.header)
	}
	if _, ok := run.header["vars"].([]any); !ok {
		t.Fatalf("header missing vars: %v", run.header)
	}

	// Negative limit means unlimited.
	rec = do(t, s, "GET", "/queries/rs/run?limit=-1", "")
	wantStatus(t, rec, http.StatusOK)
	run = parseRun(t, rec.Body)
	if len(run.tuples) != 3 || run.footer["limited"] != false {
		t.Fatalf("limit=-1: %d tuples, footer %v", len(run.tuples), run.footer)
	}

	// Bad clauses are 400s.
	wantStatus(t, do(t, s, "POST", "/query", `{"query":"R(A,B)","where":"Z < 1"}`), http.StatusBadRequest)
	wantStatus(t, do(t, s, "POST", "/query", `{"query":"R(A,B)","select":"sum(*)"}`), http.StatusBadRequest)

	// Registration echoes the output vars of a shaped query.
	rec = do(t, s, "POST", "/queries", `{"name":"counts","query":"R(A,B) select A, count(*)"}`)
	wantStatus(t, rec, http.StatusOK)
	var reg map[string]any
	json.Unmarshal(rec.Body.Bytes(), &reg)
	if !reflect.DeepEqual(reg["vars"], []any{"A", "count(*)"}) {
		t.Fatalf("registration vars = %v", reg)
	}
}

// TestExplainInQueryResponses: registration and the query listing both
// carry the plan — GAO, width, cost estimate and planned flag — so
// clients can see what order a served query runs under without an
// extra round trip.
func TestExplainInQueryResponses(t *testing.T) { eachStore(t, testExplainInQueryResponses) }

func testExplainInQueryResponses(t *testing.T, stc storeConfig) {
	s := newTestServer(t, stc)

	rec := do(t, s, "POST", "/queries", `{"name":"rs2","query":"R(x, y), S(y, z)"}`)
	wantStatus(t, rec, http.StatusOK)
	var reg struct {
		Name    string `json:"name"`
		Explain struct {
			GAO     []string `json:"gao"`
			Width   int      `json:"width"`
			EstCost float64  `json:"est_cost"`
		} `json:"explain"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &reg); err != nil {
		t.Fatal(err)
	}
	if len(reg.Explain.GAO) != 3 || reg.Explain.Width != 1 || reg.Explain.EstCost <= 0 {
		t.Fatalf("register explain = %+v", reg.Explain)
	}

	rec = do(t, s, "GET", "/queries", "")
	wantStatus(t, rec, http.StatusOK)
	var infos []struct {
		Name    string `json:"name"`
		Explain struct {
			GAO   []string `json:"gao"`
			Width int      `json:"width"`
		} `json:"explain"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("queries = %+v", infos)
	}
	for _, info := range infos {
		if len(info.Explain.GAO) != 3 {
			t.Fatalf("query %q explain = %+v", info.Name, info.Explain)
		}
	}
}

// TestRunHeaderGAOMatchesEmissionOrder: a mutation between runs can
// re-plan the evaluation order; the NDJSON header's "gao" must name
// the order the stream is actually sorted by (the run refreshes the
// plan before writing the header).
func TestRunHeaderGAOMatchesEmissionOrder(t *testing.T) {
	eachStore(t, testRunHeaderGAOMatchesEmissionOrder)
}

func testRunHeaderGAOMatchesEmissionOrder(t *testing.T, stc storeConfig) {
	s := newTestServer(t, stc)
	// Mutate R so the next run re-plans against fresh statistics.
	wantStatus(t, do(t, s, "POST", "/relations/R/insert", `{"tuples":[[9,2],[7,3],[8,2]]}`), http.StatusOK)
	rec := do(t, s, "GET", "/queries/rs/run", "")
	wantStatus(t, rec, http.StatusOK)
	run := parseRun(t, rec.Body)

	vars, _ := run.header["vars"].([]any)
	gao, _ := run.header["gao"].([]any)
	if len(vars) == 0 || len(gao) == 0 {
		t.Fatalf("header = %v", run.header)
	}
	pos := map[string]int{}
	for i, v := range vars {
		pos[v.(string)] = i
	}
	perm := make([]int, len(gao)) // gao position -> tuple column
	for i, g := range gao {
		perm[i] = pos[g.(string)]
	}
	for i := 1; i < len(run.tuples); i++ {
		prev, cur := run.tuples[i-1], run.tuples[i]
		less := false
		for _, c := range perm {
			if prev[c] != cur[c] {
				less = prev[c] < cur[c]
				break
			}
		}
		if !less {
			t.Fatalf("tuples not sorted by header gao %v: %v then %v", gao, prev, cur)
		}
	}
}

// TestListQueriesExplainTracksMutations: GET /queries reports the live
// plan — after a mutation re-plans the prepared query, the listing's
// gao must match what the next run's stream header says, not the
// registration-time copy.
func TestListQueriesExplainTracksMutations(t *testing.T) {
	eachStore(t, testListQueriesExplainTracksMutations)
}

func testListQueriesExplainTracksMutations(t *testing.T, stc storeConfig) {
	s := newTestServer(t, stc)
	wantStatus(t, do(t, s, "POST", "/relations/R/insert", `{"tuples":[[9,2],[7,3],[8,2]]}`), http.StatusOK)

	rec := do(t, s, "GET", "/queries", "")
	wantStatus(t, rec, http.StatusOK)
	var infos []struct {
		Explain struct {
			GAO []string `json:"gao"`
		} `json:"explain"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("queries = %+v", infos)
	}
	listed := infos[0].Explain.GAO

	run := parseRun(t, do(t, s, "GET", "/queries/rs/run", "").Body)
	headerGAO, _ := run.header["gao"].([]any)
	if len(headerGAO) != len(listed) {
		t.Fatalf("listing gao %v vs run header gao %v", listed, headerGAO)
	}
	for i, g := range headerGAO {
		if g.(string) != listed[i] {
			t.Fatalf("listing gao %v diverges from run header gao %v", listed, headerGAO)
		}
	}
}

// TestSequentialWorkersShareOneVariant: every workers value ≤ 1 is the
// one sequential run, so ?workers=0 and ?workers=1 prepare and cache a
// single variant between them (each variant holds its own plan, and
// with dictionaries its own encoded trees).
func TestSequentialWorkersShareOneVariant(t *testing.T) {
	s := newTestServer(t, storeConfig{"memory", 1, 1})
	for _, w := range []string{"0", "1"} {
		wantStatus(t, do(t, s, "GET", "/queries/rs/run?workers="+w, ""), http.StatusOK)
	}
	s.mu.Lock()
	rq := s.queries["rs"]
	s.mu.Unlock()
	rq.mu.Lock()
	defer rq.mu.Unlock()
	if len(rq.prepared) != 1 {
		keys := make([]string, 0, len(rq.prepared))
		for k := range rq.prepared {
			keys = append(keys, k)
		}
		t.Fatalf("cached variants = %v, want one sequential variant", keys)
	}
}

// TestParallelLimitOverHTTP: a limited run with workers stays anytime —
// ?workers=2&limit=1 returns one tuple, and its footer reports under
// half the probes of the unlimited run.
func TestParallelLimitOverHTTP(t *testing.T) {
	s := newServer(newTestCatalog(t, storeConfig{"memory", 1, 1}))
	var r, sb strings.Builder
	r.WriteString("R: A B\n")
	sb.WriteString("S: B C\n")
	for b := 0; b < 1000; b++ {
		for i := 0; i < 4; i++ {
			fmt.Fprintf(&r, "%d %d\n", (b*7919+i*104729)%100003, b)
			fmt.Fprintf(&sb, "%d %d\n", b, (b*6151+i*7907)%100019)
		}
	}
	wantStatus(t, do(t, s, "POST", "/relations", r.String()), http.StatusOK)
	wantStatus(t, do(t, s, "POST", "/relations", sb.String()), http.StatusOK)
	wantStatus(t, do(t, s, "POST", "/queries",
		`{"name":"rs","query":"R(A,B), S(B,C)","gao":["B","A","C"]}`), http.StatusOK)
	run := func(params string) (int, float64) {
		rec := do(t, s, "GET", "/queries/rs/run?"+params, "")
		wantStatus(t, rec, http.StatusOK)
		res := parseRun(t, rec.Body)
		st, _ := res.footer["stats"].(map[string]any)
		probes, _ := st["ProbePoints"].(float64)
		return len(res.tuples), probes
	}
	n, all := run("workers=2")
	if n != 16000 || all == 0 {
		t.Fatalf("unlimited run: %d tuples, %v probes", n, all)
	}
	if n, one := run("workers=2&limit=1"); n != 1 || 2*one >= all {
		t.Fatalf("workers=2&limit=1: %d tuples, %v probes of the unlimited run's %v, want 1 and under half", n, one, all)
	}
}
