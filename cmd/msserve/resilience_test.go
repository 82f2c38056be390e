package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minesweeper/internal/shard"
	"minesweeper/internal/storage"
)

// faultyServer builds a server over a durable backend wrapped in the
// fault-injection layer, in dir, with the given fault script and
// config. The caller drives it to the fault and inspects the wreckage.
func faultyServer(t *testing.T, dir, script string, cfg serverConfig) *server {
	t.Helper()
	s := newServerWith(openTestCatalog(t, dir, 1, 1, storage.Options{}, script), cfg)
	t.Cleanup(s.Close)
	return s
}

func statsBody(t *testing.T, s *server) map[string]any {
	t.Helper()
	rec := do(t, s, "GET", "/stats", "")
	wantStatus(t, rec, http.StatusOK)
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	return body
}

// TestDegradedReadOnlyAndRestart is the kill-and-restart acceptance
// path: an injected torn append mid-history poisons the backend, the
// server degrades to read-only (503 mutations, 200 queries, /readyz
// not-ready, /healthz still alive), and a restart over the same
// directory recovers exactly the longest durable prefix.
func TestDegradedReadOnlyAndRestart(t *testing.T) {
	dir := t.TempDir()
	s := faultyServer(t, dir, "append@5=torn:23", defaultServerConfig())

	// Appends 1-4: create R, create S, register rs, one insert.
	wantStatus(t, do(t, s, "POST", "/relations", "R: A B\n1 2\n2 3\n4 1\n"), http.StatusOK)
	wantStatus(t, do(t, s, "POST", "/relations", "S: B C\n2 5\n3 7\n3 9\n"), http.StatusOK)
	wantStatus(t, do(t, s, "POST", "/queries", `{"name":"rs","query":"R(A,B), S(B,C)"}`), http.StatusOK)
	wantStatus(t, do(t, s, "POST", "/relations/R/insert", `{"tuples":[[7,3]]}`), http.StatusOK)

	// Append 5 tears: the mutation fails with 503 and nothing applies.
	wantStatus(t, do(t, s, "POST", "/relations/R/insert", `{"tuples":[[9,9]]}`), http.StatusServiceUnavailable)
	// Read-only mode: every further mutation is 503...
	wantStatus(t, do(t, s, "POST", "/relations/S/insert", `{"tuples":[[1,1]]}`), http.StatusServiceUnavailable)
	wantStatus(t, do(t, s, "DELETE", "/relations/S", ""), http.StatusServiceUnavailable)
	wantStatus(t, do(t, s, "POST", "/queries", `{"name":"q2","query":"R(A,B)"}`), http.StatusServiceUnavailable)
	// ...while queries keep serving the durably applied state: the
	// fixture's 3 join rows plus the row insert #4 added (7-3 joins 3-7
	// and 3-9).
	rec := do(t, s, "GET", "/queries/rs/run", "")
	wantStatus(t, rec, http.StatusOK)
	if run := parseRun(t, rec.Body); len(run.tuples) != 5 {
		t.Fatalf("degraded run returned %d tuples, want 5", len(run.tuples))
	}
	// Probes: alive but not ready.
	wantStatus(t, do(t, s, "GET", "/healthz", ""), http.StatusOK)
	rec = do(t, s, "GET", "/readyz", "")
	wantStatus(t, rec, http.StatusServiceUnavailable)
	if !strings.Contains(rec.Body.String(), `"ready":false`) {
		t.Fatalf("readyz body: %s", rec.Body.String())
	}
	if health, _ := statsBody(t, s)["health"].(map[string]any); health["read_only"] != true {
		t.Fatalf("stats health = %v, want read_only true", health)
	}

	// "Restart": recover the directory with a clean backend. The torn
	// record truncates away; everything before it survives.
	s2 := newServerWith(openTestCatalog(t, dir, 1, 1, storage.Options{}, ""), defaultServerConfig())
	defer s2.Close()
	if restored, failed := s2.restoreQueries(); restored != 1 || len(failed) != 0 {
		t.Fatalf("restored %d queries (failures %v), want 1", restored, failed)
	}
	wantStatus(t, do(t, s2, "GET", "/readyz", ""), http.StatusOK)
	rec = do(t, s2, "GET", "/queries/rs/run", "")
	wantStatus(t, rec, http.StatusOK)
	if run := parseRun(t, rec.Body); len(run.tuples) != 5 {
		t.Fatalf("recovered run returned %d tuples, want 5", len(run.tuples))
	}
	// Mutations flow again on the recovered server.
	wantStatus(t, do(t, s2, "POST", "/relations/R/insert", `{"tuples":[[9,9]]}`), http.StatusOK)
}

// TestReopenLoopLeavesDegradedMode: with a reopen policy configured,
// the server recovers from a poisoned backend in place — the
// background loop swaps in a freshly recovered backend and mutations
// resume without a restart.
func TestReopenLoopLeavesDegradedMode(t *testing.T) {
	dir := t.TempDir()
	cat := openTestCatalog(t, dir, 1, 1, storage.Options{}, "append@2=enospc")
	cfg := defaultServerConfig()
	cfg.reopenTargets = downReplicaTargets(cat, func(i, j int) (storage.Backend, error) {
		return storage.OpenDurable(shard.ReplicaDir(dir, i, j), storage.Options{})
	})
	cfg.reopenBase = 2 * time.Millisecond
	cfg.reopenPoll = 20 * time.Millisecond
	s := newServerWith(cat, cfg)
	t.Cleanup(s.Close)

	wantStatus(t, do(t, s, "POST", "/relations", "R: A B\n1 2\n"), http.StatusOK)
	wantStatus(t, do(t, s, "POST", "/relations/R/insert", `{"tuples":[[3,4]]}`), http.StatusServiceUnavailable)

	// The 503 woke the reopen loop; within a few backoff rounds the
	// server must be ready again.
	deadline := time.Now().Add(5 * time.Second)
	for do(t, s, "GET", "/readyz", "").Code != http.StatusOK {
		if time.Now().After(deadline) {
			t.Fatal("server never left degraded mode")
		}
		time.Sleep(5 * time.Millisecond)
	}
	wantStatus(t, do(t, s, "POST", "/relations/R/insert", `{"tuples":[[3,4]]}`), http.StatusOK)
	health, _ := statsBody(t, s)["health"].(map[string]any)
	if health["read_only"] != false {
		t.Fatalf("health = %v, want read_only false", health)
	}
	if n, _ := health["reopen_attempts"].(float64); n < 1 {
		t.Fatalf("reopen_attempts = %v, want >= 1", health["reopen_attempts"])
	}
}

// TestReopenBackoffPerTarget: each degraded target keeps an independent
// capped-exponential schedule — a stubbornly failing replica retries on
// its own clock and never delays the recovery of a healthy sibling.
func TestReopenBackoffPerTarget(t *testing.T) { eachStore(t, testReopenBackoffPerTarget) }

func testReopenBackoffPerTarget(t *testing.T, stc storeConfig) {
	var goodDone atomic.Bool
	var goodCalls, badCalls atomic.Int64
	cfg := defaultServerConfig()
	cfg.reopenBase = time.Millisecond
	cfg.reopenMax = 4 * time.Millisecond
	cfg.reopenPoll = 2 * time.Millisecond
	cfg.reopenTargets = func() []reopenTarget {
		out := []reopenTarget{{key: "shard-0/replica-1", reopen: func() error {
			badCalls.Add(1)
			return errors.New("still broken")
		}}}
		if !goodDone.Load() {
			out = append(out, reopenTarget{key: "shard-1/replica-0", reopen: func() error {
				goodCalls.Add(1)
				goodDone.Store(true)
				return nil
			}})
		}
		return out
	}
	s := newServerWith(newTestCatalog(t, stc), cfg)
	defer s.Close()

	deadline := time.Now().Add(5 * time.Second)
	for !goodDone.Load() || badCalls.Load() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("reopen loop stalled: good=%d bad=%d", goodCalls.Load(), badCalls.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The healthy target recovered on its first attempt and left the
	// schedule; the failing one kept retrying without it.
	if n := goodCalls.Load(); n != 1 {
		t.Fatalf("healthy target reopened %d times, want exactly 1", n)
	}
}

// TestPanicIsolation: an engine panic mid-run becomes an HTTP error —
// 500 before the first tuple, a terminal NDJSON error record after —
// and never takes the process down. The /stats panic counter records
// both.
func TestPanicIsolation(t *testing.T) { eachStore(t, testPanicIsolation) }

func testPanicIsolation(t *testing.T, stc storeConfig) {
	var calls atomic.Int64
	panicAt := atomic.Int64{}
	cfg := defaultServerConfig()
	cfg.emitHook = func([]int) {
		if calls.Add(1) == panicAt.Load() {
			panic("kaboom")
		}
	}
	s := newServerWith(newTestCatalog(t, stc), cfg)
	defer s.Close()
	wantStatus(t, do(t, s, "POST", "/relations", "R: A B\n1 2\n2 3\n4 1\n"), http.StatusOK)
	wantStatus(t, do(t, s, "POST", "/relations", "S: B C\n2 5\n3 7\n3 9\n"), http.StatusOK)
	wantStatus(t, do(t, s, "POST", "/queries", `{"name":"rs","query":"R(A,B), S(B,C)"}`), http.StatusOK)

	// Panic on the first tuple, before anything is on the wire: 500.
	panicAt.Store(1)
	rec := do(t, s, "GET", "/queries/rs/run", "")
	wantStatus(t, rec, http.StatusInternalServerError)
	if !strings.Contains(rec.Body.String(), "engine panic") {
		t.Fatalf("panic body: %s", rec.Body.String())
	}

	// Panic on the second tuple, mid-stream: 200 with a terminal error
	// footer instead of a vanishing connection.
	calls.Store(0)
	panicAt.Store(2)
	rec = do(t, s, "GET", "/queries/rs/run", "")
	wantStatus(t, rec, http.StatusOK)
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	var footer map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &footer); err != nil {
		t.Fatal(err)
	}
	if errStr, _ := footer["error"].(string); !strings.Contains(errStr, "engine panic") {
		t.Fatalf("mid-stream footer = %v, want engine panic error", footer)
	}

	// The process (and the server) survived both; /stats counted them.
	panicAt.Store(0)
	rec = do(t, s, "GET", "/queries/rs/run", "")
	wantStatus(t, rec, http.StatusOK)
	if run := parseRun(t, rec.Body); len(run.tuples) != 3 {
		t.Fatalf("post-panic run: %d tuples, want 3", len(run.tuples))
	}
	health, _ := statsBody(t, s)["health"].(map[string]any)
	if n, _ := health["panics"].(float64); n != 2 {
		t.Fatalf("panics = %v, want 2", health["panics"])
	}
}

// TestServerSideDeadline: with no client timeout at all, -run-timeout
// still bounds the run, and expiry before the first tuple maps to 504
// (counted apart from client cancels).
func TestServerSideDeadline(t *testing.T) { eachStore(t, testServerSideDeadline) }

func testServerSideDeadline(t *testing.T, stc storeConfig) {
	cfg := defaultServerConfig()
	cfg.runTimeout = time.Nanosecond
	s := newServerWith(newTestCatalog(t, stc), cfg)
	defer s.Close()
	wantStatus(t, do(t, s, "POST", "/relations", "R: A B\n1 2\n"), http.StatusOK)
	wantStatus(t, do(t, s, "POST", "/queries", `{"name":"r","query":"R(A,B)"}`), http.StatusOK)
	wantStatus(t, do(t, s, "GET", "/queries/r/run", ""), http.StatusGatewayTimeout)
	body := statsBody(t, s)
	if body["deadline_expired"] != float64(1) || body["client_canceled"] != float64(0) {
		t.Fatalf("deadline_expired = %v, client_canceled = %v, want 1 and 0",
			body["deadline_expired"], body["client_canceled"])
	}
}

// TestAdmissionSoak floods a server whose run gate admits 3 with 2
// queued: inflight must never exceed the cap, the overflow must be
// shed with 429 + Retry-After, and every admitted run must complete
// correctly. Mutations ride along through their own gate.
func TestAdmissionSoak(t *testing.T) { eachStore(t, testAdmissionSoak) }

func testAdmissionSoak(t *testing.T, stc storeConfig) {
	cfg := defaultServerConfig()
	cfg.maxRuns = 3
	cfg.maxMutations = 2
	cfg.queueDepth = 2
	cfg.emitHook = func([]int) { time.Sleep(2 * time.Millisecond) }
	s := newServerWith(newTestCatalog(t, stc), cfg)
	defer s.Close()
	wantStatus(t, do(t, s, "POST", "/relations", "R: A B\n1 2\n2 3\n4 1\n"), http.StatusOK)
	wantStatus(t, do(t, s, "POST", "/relations", "S: B C\n2 5\n3 7\n3 9\n"), http.StatusOK)
	wantStatus(t, do(t, s, "POST", "/queries", `{"name":"rs","query":"R(A,B), S(B,C)"}`), http.StatusOK)

	const clients = 24
	var (
		wg          sync.WaitGroup
		start       = make(chan struct{})
		ok, shed    atomic.Int64
		missingRA   atomic.Int64
		unexpected  atomic.Int64
		mutOK, mut5 atomic.Int64
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for r := 0; r < 4; r++ {
				if i%6 == 0 {
					// A sprinkle of mutations through the mutation gate.
					req := httptest.NewRequest("POST", "/relations/R/insert", strings.NewReader(`{"tuples":[]}`))
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, req)
					switch rec.Code {
					case http.StatusOK:
						mutOK.Add(1)
					case http.StatusTooManyRequests:
						mut5.Add(1)
					default:
						unexpected.Add(1)
					}
					continue
				}
				req := httptest.NewRequest("GET", "/queries/rs/run", nil)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				switch rec.Code {
				case http.StatusOK:
					ok.Add(1)
					if !strings.HasSuffix(strings.TrimSpace(rec.Body.String()), "}") {
						unexpected.Add(1) // truncated stream
					}
				case http.StatusTooManyRequests:
					shed.Add(1)
					if rec.Header().Get("Retry-After") == "" {
						missingRA.Add(1)
					}
				default:
					unexpected.Add(1)
				}
			}
		}(i)
	}
	close(start)
	wg.Wait()

	if unexpected.Load() != 0 {
		t.Fatalf("%d unexpected responses", unexpected.Load())
	}
	if ok.Load() == 0 {
		t.Fatal("no run was admitted")
	}
	if shed.Load() == 0 {
		t.Fatal("no run was shed; the soak never saturated the gate")
	}
	if missingRA.Load() != 0 {
		t.Fatalf("%d shed responses missing Retry-After", missingRA.Load())
	}
	runStats := s.runGate.stats()
	if runStats.MaxInflight > 3 {
		t.Fatalf("run max_inflight = %d, want <= 3", runStats.MaxInflight)
	}
	if mutStats := s.mutGate.stats(); mutStats.MaxInflight > 2 {
		t.Fatalf("mutation max_inflight = %d, want <= 2", mutStats.MaxInflight)
	}
	// The numbers surface in /stats for operators.
	adm, _ := statsBody(t, s)["admission"].(map[string]any)
	runs, _ := adm["runs"].(map[string]any)
	if n, _ := runs["shed"].(float64); int64(n) != runStats.Shed {
		t.Fatalf("stats admission.runs.shed = %v, gate says %d", runs["shed"], runStats.Shed)
	}
}

// TestDrainAbortEmitsTerminalRecord: when the drain deadline fires,
// abortStreams ends an in-flight NDJSON stream with a terminal footer
// ("aborted": true + error) instead of just cutting the connection.
func TestDrainAbortEmitsTerminalRecord(t *testing.T) { eachStore(t, testDrainAbortEmitsTerminalRecord) }

func testDrainAbortEmitsTerminalRecord(t *testing.T, stc storeConfig) {
	firstOut := make(chan struct{})
	released := make(chan struct{})
	var calls atomic.Int64
	cfg := defaultServerConfig()
	cfg.emitHook = func([]int) {
		if calls.Add(1) == 2 {
			// Tuple 1 is on the wire; park the stream mid-flight until
			// the test fires the drain path.
			close(firstOut)
			<-released
		}
	}
	s := newServerWith(newTestCatalog(t, stc), cfg)
	defer s.Close()
	wantStatus(t, do(t, s, "POST", "/relations", "R: A B\n1 2\n2 3\n4 1\n"), http.StatusOK)
	wantStatus(t, do(t, s, "POST", "/relations", "S: B C\n2 5\n3 7\n3 9\n"), http.StatusOK)
	wantStatus(t, do(t, s, "POST", "/queries", `{"name":"rs","query":"R(A,B), S(B,C)"}`), http.StatusOK)

	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/queries/rs/run")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	<-firstOut
	if n := s.abortStreams(); n != 1 {
		t.Fatalf("abortStreams aborted %d streams, want 1", n)
	}
	close(released)

	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if len(lines) < 2 {
		t.Fatalf("stream had %d lines: %q", len(lines), lines)
	}
	var footer map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &footer); err != nil {
		t.Fatalf("last line %q is not the terminal record: %v", lines[len(lines)-1], err)
	}
	if footer["done"] != true || footer["aborted"] != true {
		t.Fatalf("terminal record = %v, want done and aborted", footer)
	}
	if errStr, _ := footer["error"].(string); !strings.Contains(errStr, "draining") {
		t.Fatalf("terminal record error = %q, want the draining cause", footer["error"])
	}
	if n, _ := statsBody(t, s)["aborted_streams"].(float64); n != 1 {
		t.Fatalf("aborted_streams = %v, want 1", n)
	}
}

// TestClientTimeoutClampedToServerDeadline: a client asking for a
// looser timeout than -run-timeout gets the server's deadline; a
// tighter one is honored. (Verified through the effective 504/200
// behavior rather than timing.)
func TestClientTimeoutClamp(t *testing.T) { eachStore(t, testClientTimeoutClamp) }

func testClientTimeoutClamp(t *testing.T, stc storeConfig) {
	cfg := defaultServerConfig()
	cfg.runTimeout = time.Nanosecond
	s := newServerWith(newTestCatalog(t, stc), cfg)
	defer s.Close()
	wantStatus(t, do(t, s, "POST", "/relations", "R: A B\n1 2\n"), http.StatusOK)
	wantStatus(t, do(t, s, "POST", "/queries", `{"name":"r","query":"R(A,B)"}`), http.StatusOK)
	// Client asks for a minute; the 1ns server deadline still rules.
	wantStatus(t, do(t, s, "GET", "/queries/r/run?timeout=1m", ""), http.StatusGatewayTimeout)

	// And the other direction: a generous server deadline does not
	// override a tight client timeout.
	cfg2 := defaultServerConfig()
	s2 := newServerWith(newTestCatalog(t, stc), cfg2)
	defer s2.Close()
	wantStatus(t, do(t, s2, "POST", "/relations", "R: A B\n1 2\n"), http.StatusOK)
	wantStatus(t, do(t, s2, "POST", "/queries", `{"name":"r","query":"R(A,B)"}`), http.StatusOK)
	wantStatus(t, do(t, s2, "GET", "/queries/r/run?timeout=1ns", ""), http.StatusGatewayTimeout)
}
