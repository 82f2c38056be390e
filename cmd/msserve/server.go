package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"minesweeper"
	"minesweeper/internal/catalog"
	"minesweeper/internal/certificate"
	"minesweeper/internal/reltree"
	"minesweeper/internal/shard"
	"minesweeper/internal/storage"
)

// serverConfig is the resilience tuning for one server: admission
// caps, the default server-side run deadline, and the degraded-mode
// reopen policy.
type serverConfig struct {
	// maxRuns / maxMutations cap concurrent query executions and
	// catalog mutations; <= 0 means unlimited. queueDepth is how many
	// requests may wait for a slot beyond the cap before new arrivals
	// are shed with 429 + Retry-After.
	maxRuns      int
	maxMutations int
	queueDepth   int
	// runTimeout is the server-side deadline applied to every run: a
	// client timeout longer than it (or absent) is clamped down to it.
	// Zero disables the default deadline.
	runTimeout time.Duration
	// reopenTargets, when set, enumerates the store's currently
	// degraded units — one per down replica (downReplicaTargets) — each
	// with its own reopen closure. The background loop retries every
	// listed target on an independent capped-exponential schedule
	// (reopenBase doubling up to reopenMax), so one stubbornly failing
	// replica never delays the recovery of the others.
	reopenTargets func() []reopenTarget
	reopenBase    time.Duration
	reopenMax     time.Duration
	// reopenPoll is the idle re-scan cadence of the reopen loop:
	// degradations with no mutation behind them (a backend poisoned
	// out-of-band, a follower marked down by a mutation that still
	// succeeded) have no 503 to ring degradedCh, so the loop
	// re-enumerates targets at this interval too.
	reopenPoll time.Duration
	// emitHook is a test seam invoked with each output tuple before it
	// is written to the stream (nil in production).
	emitHook func([]int)
}

func defaultServerConfig() serverConfig {
	n := runtime.GOMAXPROCS(0)
	return serverConfig{
		maxRuns:      4 * n,
		maxMutations: 2 * n,
		queueDepth:   8 * n,
		runTimeout:   time.Minute,
		reopenBase:   250 * time.Millisecond,
		reopenMax:    30 * time.Second,
		reopenPoll:   time.Second,
	}
}

// reopenTarget is one independently recoverable storage unit, a down
// replica. The key identifies the unit across enumerations so its
// backoff schedule survives re-scans.
type reopenTarget struct {
	key    string
	reopen func() error
}

// downReplicaTargets is the reopen policy of every durable
// configuration: each replica the catalog reports down — a poisoned
// 1 x 1 store shows up as shard-0/replica-0 — is reopened on a fresh
// backend from open and the shard log's state, rendered from memory,
// compacted into it.
func downReplicaTargets(sc *shard.Catalog, open func(shard, replica int) (storage.Backend, error)) func() []reopenTarget {
	return func() []reopenTarget {
		var out []reopenTarget
		for _, ref := range sc.DownReplicas() {
			out = append(out, reopenTarget{
				key: fmt.Sprintf("shard-%d/replica-%d", ref.Shard, ref.Replica),
				reopen: func() error {
					return sc.ReopenReplica(ref.Shard, ref.Replica, func() (storage.Backend, error) {
						return open(ref.Shard, ref.Replica)
					})
				},
			})
		}
		return out
	}
}

// server is the msserve HTTP handler: the data plane (one catalog of
// N shards x R replicas) plus a registry of named prepared queries and
// aggregate run counters.
type server struct {
	cat *shard.Catalog
	mux *http.ServeMux
	cfg serverConfig

	runGate *gate // concurrent query executions
	mutGate *gate // concurrent catalog mutations

	mu      sync.Mutex
	queries map[string]*registeredQuery

	statsMu  sync.Mutex
	agg      certificate.Stats // accumulated across every run
	runs     int64             // completed executions
	served   int64             // tuples written to clients
	expired  int64             // runs cut short by limit/timeout/cancel
	deadline int64             // runs cut by the server-side deadline (504-class)
	canceled int64             // runs cut by the client going away (499-class)
	aborted  int64             // streams force-ended at shutdown drain timeout
	panics   int64             // engine panics converted to errors

	// Active NDJSON streams, so the drain path can end each one with a
	// terminal error record instead of silently truncating it.
	streamMu sync.Mutex
	streams  map[*streamHandle]struct{}

	draining atomic.Bool

	// Degraded-mode reopen machinery (active when cfg.reopenTargets != nil).
	degradedCh     chan struct{}
	done           chan struct{}
	closeOnce      sync.Once
	reopenMu       sync.Mutex
	reopenAttempts int64
	lastReopenErr  string

	// Heap-allocation counters at server start; /stats reports the
	// process-lifetime delta. A single baseline read cannot double-count
	// under concurrent runs the way per-run windows would.
	allocObjs0, allocBytes0 uint64
}

// streamHandle lets the drain path abort one in-flight NDJSON stream
// with a cause its handler turns into a terminal error record.
type streamHandle struct {
	abort context.CancelCauseFunc
}

// errDraining is the cancellation cause used when -drain-timeout
// expires: the handler sees it and writes a terminal error record so
// the client can tell truncation from a complete result set.
var errDraining = errors.New("server draining: drain timeout exceeded")

// registeredQuery is one named query: its textual form, default options,
// and a cache of prepared variants keyed by (engine, workers). The
// variants stay bound across catalog mutations — PreparedQuery re-binds
// itself on epoch changes — so registration is a one-time cost.
type registeredQuery struct {
	name    string
	expr    string
	opts    minesweeper.Options
	q       *minesweeper.Query
	st      *shard.Catalog // prepares variants
	outVars []string       // output column names of the default variant

	mu       sync.Mutex // guards prepared only
	prepared map[string]*shard.Prepared
	runs     atomic.Int64
}

// defaultVariant returns the prepared query registration built eagerly
// (default engine and workers resolution).
func (rq *registeredQuery) defaultVariant() (*shard.Prepared, error) {
	eng := rq.opts.Engine
	if eng == minesweeper.EngineAuto {
		eng = minesweeper.EngineMinesweeper
	}
	return rq.variant(eng, rq.opts.Workers)
}

// liveExplain reports the default variant's current plan. Mutations
// re-plan prepared queries transparently, so this is the plan the next
// run will use (refreshed first) — never the stale registration-time
// copy.
func (rq *registeredQuery) liveExplain() (minesweeper.Explain, error) {
	pq, err := rq.defaultVariant()
	if err != nil {
		return minesweeper.Explain{}, err
	}
	if err := pq.Refresh(); err != nil {
		return minesweeper.Explain{}, err
	}
	return pq.Explain(), nil
}

// variant returns the prepared query for the given engine/workers
// combination, preparing and caching it on first use. Workers are
// clamped to GOMAXPROCS on every path — beyond that parallelism buys
// nothing, and the clamp bounds this client-keyed cache — and every
// W ≤ 1 is the one sequential variant.
func (rq *registeredQuery) variant(eng minesweeper.Engine, workers int) (*shard.Prepared, error) {
	workers = min(max(workers, 1), runtime.GOMAXPROCS(0))
	key := fmt.Sprintf("%s/%d", eng, workers)
	rq.mu.Lock()
	defer rq.mu.Unlock()
	if pq, ok := rq.prepared[key]; ok {
		return pq, nil
	}
	opts := rq.opts
	opts.Engine = eng
	opts.Workers = workers
	pq, err := rq.st.Prepare(rq.q, &opts)
	if err != nil {
		return nil, err
	}
	if rq.prepared == nil {
		rq.prepared = map[string]*shard.Prepared{}
	}
	rq.prepared[key] = pq
	return pq, nil
}

func newServer(cat *shard.Catalog) *server {
	return newServerWith(cat, defaultServerConfig())
}

func newServerWith(cat *shard.Catalog, cfg serverConfig) *server {
	s := &server{
		cat: cat, cfg: cfg,
		queries: map[string]*registeredQuery{},
		mux:     http.NewServeMux(),
		runGate: newGate(cfg.maxRuns, cfg.queueDepth),
		mutGate: newGate(cfg.maxMutations, cfg.queueDepth),
		streams: map[*streamHandle]struct{}{},
		done:    make(chan struct{}),
	}
	s.allocObjs0, s.allocBytes0 = readHeapAllocs()
	s.mux.HandleFunc("GET /relations", s.handleListRelations)
	s.mux.HandleFunc("POST /relations", s.admitMutation(s.handleLoadRelation))
	s.mux.HandleFunc("GET /relations/{name}", s.handleDumpRelation)
	s.mux.HandleFunc("DELETE /relations/{name}", s.admitMutation(s.handleDropRelation))
	s.mux.HandleFunc("POST /relations/{name}/insert", s.admitMutation(s.handleMutateRelation))
	s.mux.HandleFunc("POST /relations/{name}/delete", s.admitMutation(s.handleMutateRelation))
	s.mux.HandleFunc("GET /queries", s.handleListQueries)
	s.mux.HandleFunc("POST /queries", s.admitMutation(s.handleRegisterQuery))
	s.mux.HandleFunc("DELETE /queries/{name}", s.admitMutation(s.handleDropQuery))
	s.mux.HandleFunc("GET /queries/{name}/run", s.handleRunQuery)
	s.mux.HandleFunc("POST /query", s.handleAdhocQuery)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	if cfg.reopenTargets != nil {
		s.degradedCh = make(chan struct{}, 1)
		go s.reopenLoop()
	}
	return s
}

// Close stops the background reopen loop (a no-op when none runs).
func (s *server) Close() {
	s.closeOnce.Do(func() { close(s.done) })
}

// --- admission -------------------------------------------------------

// admitMutation wraps a mutation handler with the mutation gate: over
// capacity + queue depth, the request is shed with 429 + Retry-After
// instead of letting goroutines pile onto the catalog lock.
func (s *server) admitMutation(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		release, err := s.mutGate.acquire(r.Context())
		if err != nil {
			admissionError(w, err)
			return
		}
		defer release()
		h(w, r)
	}
}

// admissionError renders a gate refusal: 429 + Retry-After for a shed
// request, 503 otherwise (the client gave up while queued, so the
// status is mostly moot).
func admissionError(w http.ResponseWriter, err error) {
	if errors.Is(err, errShed) {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	httpError(w, http.StatusServiceUnavailable, "%v", err)
}

// --- degraded mode ---------------------------------------------------

// noteDegraded wakes the reopen loop after a mutation hit read-only
// mode.
func (s *server) noteDegraded() {
	if s.degradedCh == nil {
		return
	}
	select {
	case s.degradedCh <- struct{}{}:
	default:
	}
}

// reopenLoop recovers degraded storage units in the background. Every
// wake-up — a 503'd mutation ringing degradedCh, a due retry, or the
// idle poll — re-enumerates cfg.reopenTargets and attempts each due
// target. Each target backs off on its own capped-exponential schedule
// keyed by its identity, so one shard's replica that keeps failing its
// reopen never gates the recovery of the others; a target that
// disappears from the enumeration (recovered out of band, superseded)
// drops its schedule.
func (s *server) reopenLoop() {
	base := s.cfg.reopenBase
	if base <= 0 {
		base = 250 * time.Millisecond
	}
	poll := s.cfg.reopenPoll
	if poll <= 0 {
		poll = time.Second
	}
	type sched struct {
		delay time.Duration
		next  time.Time
	}
	pending := map[string]*sched{}
	timer := time.NewTimer(poll)
	defer timer.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-s.degradedCh:
		case <-timer.C:
		}
		seen := map[string]bool{}
		now := time.Now()
		for _, t := range s.cfg.reopenTargets() {
			seen[t.key] = true
			sc := pending[t.key]
			if sc == nil {
				sc = &sched{delay: base}
				pending[t.key] = sc
			}
			if now.Before(sc.next) {
				continue
			}
			err := t.reopen()
			s.reopenMu.Lock()
			s.reopenAttempts++
			if err != nil {
				s.lastReopenErr = err.Error()
			} else {
				s.lastReopenErr = ""
			}
			s.reopenMu.Unlock()
			if err == nil {
				log.Printf("storage %s reopened", t.key)
				delete(pending, t.key)
				continue
			}
			log.Printf("storage %s reopen failed (next try in %s): %v", t.key, sc.delay, err)
			sc.next = now.Add(sc.delay)
			if sc.delay *= 2; s.cfg.reopenMax > 0 && sc.delay > s.cfg.reopenMax {
				sc.delay = s.cfg.reopenMax
			}
		}
		for key := range pending {
			if !seen[key] {
				delete(pending, key)
			}
		}
		// Sleep until the earliest scheduled retry, or the idle poll.
		wake := poll
		for _, sc := range pending {
			if d := time.Until(sc.next); d < wake {
				wake = d
			}
		}
		if wake < time.Millisecond {
			wake = time.Millisecond
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wake)
	}
}

// mutationStatus maps a catalog mutation error to its HTTP status —
// 503 for a read-only store (flagging the degradation for the reopen
// loop on the way), 404 for an unknown relation, otherwise the
// endpoint's own fallback.
func (s *server) mutationStatus(err error, otherwise int) int {
	if errors.Is(err, catalog.ErrReadOnly) {
		s.noteDegraded()
		return http.StatusServiceUnavailable
	}
	if strings.Contains(err.Error(), "unknown relation") {
		return http.StatusNotFound
	}
	return otherwise
}

// --- streams ---------------------------------------------------------

func (s *server) addStream(h *streamHandle) {
	s.streamMu.Lock()
	s.streams[h] = struct{}{}
	s.streamMu.Unlock()
}

func (s *server) removeStream(h *streamHandle) {
	s.streamMu.Lock()
	delete(s.streams, h)
	s.streamMu.Unlock()
}

// abortStreams force-ends every in-flight NDJSON stream with the
// errDraining cause; each handler writes a terminal error record and
// returns, letting a stuck Shutdown complete. Returns how many streams
// were aborted.
func (s *server) abortStreams() int {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	for h := range s.streams {
		h.abort(errDraining)
	}
	return len(s.streams)
}

// --- health ----------------------------------------------------------

// handleHealthz is the liveness probe: the process is up and the
// handler runs. Degraded storage does not make the process unhealthy —
// that is /readyz's job.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// handleReadyz is the readiness probe: recovery is complete (the
// server would not be serving otherwise), the storage backend is
// healthy, and the server is not draining. Not-ready is 503, so a load
// balancer stops routing mutations here while queries stay available
// to clients that still ask.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "draining"})
		return
	}
	if err := s.cat.Degraded(); err != nil {
		w.Header().Set("Retry-After", "1")
		// Per-shard detail: which shard logs are poisoned and which are
		// still healthy (reads keep serving every relation).
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"ready": false, "reason": "storage degraded: read-only", "error": err.Error(),
			"shards": shardHealth(s.cat.ShardStats()),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true, "shards": shardHealth(s.cat.ShardStats())})
}

// shardHealth summarizes shard readiness for /readyz: a shard is ready
// while any replica is healthy, and each replica reports its own state
// (so an operator sees which copy a failover abandoned).
func shardHealth(stats []shard.ShardStat) []map[string]any {
	out := make([]map[string]any, len(stats))
	for i, st := range stats {
		reps := make([]map[string]any, len(st.Replicas))
		for j, r := range st.Replicas {
			rh := map[string]any{"replica": r.Replica, "ready": r.Down == "", "primary": r.Primary}
			if r.Down != "" {
				rh["error"] = r.Down
			}
			reps[j] = rh
		}
		h := map[string]any{"shard": st.Shard, "ready": st.Degraded == "", "primary": st.Primary, "replicas": reps}
		if st.Degraded != "" {
			h["error"] = st.Degraded
		}
		out[i] = h
	}
	return out
}

// Request-body caps: relio uploads may be bulk data, everything else is
// small JSON. MaxBytesReader turns an oversized body into a clean read
// error instead of letting one request grow server memory unboundedly.
const (
	maxUploadBody = 256 << 20 // POST /relations
	maxJSONBody   = 16 << 20  // mutation and query bodies
)

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Body != nil {
		limit := int64(maxJSONBody)
		if r.Method == http.MethodPost && r.URL.Path == "/relations" {
			limit = maxUploadBody
		}
		r.Body = http.MaxBytesReader(w, r.Body, limit)
	}
	s.mux.ServeHTTP(w, r)
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// --- relations -------------------------------------------------------

func (s *server) handleListRelations(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cat.Relations())
}

// handleLoadRelation accepts a relio-format body and creates the named
// relation (or replaces an existing one of the same arity).
func (s *server) handleLoadRelation(w http.ResponseWriter, r *http.Request) {
	info, err := s.cat.Load(r.Body, "request body")
	if err != nil {
		httpError(w, s.mutationStatus(err, http.StatusBadRequest), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *server) handleDumpRelation(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := s.cat.Dump(w, name); err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
	}
}

func (s *server) handleDropRelation(w http.ResponseWriter, r *http.Request) {
	if err := s.cat.Drop(r.PathValue("name")); err != nil {
		httpError(w, s.mutationStatus(err, http.StatusNotFound), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"dropped": true})
}

// handleMutateRelation serves both /insert and /delete: the JSON body
// carries the tuples, the path's last element picks the mutation. The
// catalog mutators return the post-mutation state atomically, so the
// reported epoch/tuple count are exactly what this request produced.
func (s *server) handleMutateRelation(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var body struct {
		Tuples [][]int `json:"tuples"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON body: %v", err)
		return
	}
	deleting := r.URL.Path[len(r.URL.Path)-len("/delete"):] == "/delete"
	if deleting {
		n, info, err := s.cat.Delete(name, body.Tuples...)
		if err != nil {
			httpError(w, s.mutationStatus(err, http.StatusBadRequest), "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"deleted": n, "epoch": info.Epoch, "tuples": info.Tuples})
		return
	}
	info, err := s.cat.Insert(name, body.Tuples...)
	if err != nil {
		httpError(w, s.mutationStatus(err, http.StatusBadRequest), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"inserted": len(body.Tuples), "epoch": info.Epoch, "tuples": info.Tuples})
}

// --- queries ---------------------------------------------------------

// querySpec is the JSON body of POST /queries and POST /query. The
// query expression itself may carry select/where clauses ("R(x, 7),
// S(x, y) select x, count(*) where y < 100"); the optional Select and
// Where fields take the same clause syntax and override the expression's
// clauses when set.
type querySpec struct {
	Name    string   `json:"name,omitempty"`
	Query   string   `json:"query"`
	Engine  string   `json:"engine,omitempty"`
	GAO     []string `json:"gao,omitempty"`
	Workers int      `json:"workers,omitempty"`
	// Domain selects the dictionary domain ordering: "natural" (default,
	// order-preserving rank codes) or "freq" (frequency-permuted codes
	// on skewed attributes). The register/list responses' explain block
	// reports the ordering actually applied per attribute (dict_orders).
	Domain string `json:"domain,omitempty"`
	// Select is a projection/aggregate list, e.g. "x, count(*), sum(y)".
	Select string `json:"select,omitempty"`
	// Where is a filter list, e.g. "x < 100 and y >= 3".
	Where string `json:"where,omitempty"`
	// Limit and Timeout apply to ad-hoc POST /query runs; registered
	// queries take them per run as URL parameters. A negative limit
	// means unlimited, like limit 0.
	Limit   int    `json:"limit,omitempty"`
	Timeout string `json:"timeout,omitempty"`
}

// def renders the spec as the durable prepared-query definition: the
// textual query plus the registration options, exactly what recovery
// needs to re-register and re-plan it.
func (spec *querySpec) def() storage.QueryDef {
	return storage.QueryDef{
		Name:    spec.Name,
		Query:   spec.Query,
		Engine:  spec.Engine,
		GAO:     spec.GAO,
		Workers: spec.Workers,
		Domain:  spec.Domain,
		Select:  spec.Select,
		Where:   spec.Where,
	}
}

// specFromDef is the inverse of querySpec.def, used at recovery.
func specFromDef(def storage.QueryDef) *querySpec {
	return &querySpec{
		Name:    def.Name,
		Query:   def.Query,
		Engine:  def.Engine,
		GAO:     def.GAO,
		Workers: def.Workers,
		Domain:  def.Domain,
		Select:  def.Select,
		Where:   def.Where,
	}
}

// restoreQueries re-registers every prepared-query definition the
// catalog recovered, re-planning each against the recovered data (the
// eager default-variant Prepare inside buildQuery). A definition that
// no longer builds — its relation was dropped after registration and
// never recreated — is skipped and reported rather than keeping the
// whole server from booting; its definition stays in the catalog.
func (s *server) restoreQueries() (restored int, failed []error) {
	for _, def := range s.cat.QueryDefs() {
		rq, err := s.buildQuery(specFromDef(def))
		if err != nil {
			failed = append(failed, fmt.Errorf("query %q: %w", def.Name, err))
			continue
		}
		s.mu.Lock()
		s.queries[def.Name] = rq
		s.mu.Unlock()
		restored++
	}
	return restored, failed
}

// buildQuery parses and validates a spec against the catalog.
func (s *server) buildQuery(spec *querySpec) (*registeredQuery, error) {
	if spec.Query == "" {
		return nil, fmt.Errorf("missing query expression")
	}
	eng, err := minesweeper.ParseEngine(spec.Engine)
	if err != nil {
		return nil, err
	}
	q, err := s.cat.Query(spec.Query)
	if err != nil {
		return nil, err
	}
	domain, err := minesweeper.ParseDomainOrder(spec.Domain)
	if err != nil {
		return nil, err
	}
	opts := minesweeper.Options{Engine: eng, GAO: spec.GAO, Workers: spec.Workers, Domain: domain}
	if spec.Select != "" {
		sel, aggs, err := minesweeper.ParseSelect(spec.Select)
		if err != nil {
			return nil, err
		}
		opts.Select = sel
		opts.Aggregates = aggs
	}
	if spec.Where != "" {
		where, err := minesweeper.ParseWhere(spec.Where)
		if err != nil {
			return nil, err
		}
		opts.Where = where
	}
	rq := &registeredQuery{
		name: spec.Name,
		expr: spec.Query,
		q:    q,
		st:   s.cat,
		opts: opts,
	}
	// Prepare the default variant eagerly so registration surfaces GAO,
	// clause and engine errors immediately.
	pq, err := rq.defaultVariant()
	if err != nil {
		return nil, err
	}
	rq.outVars = pq.OutputVars()
	return rq, nil
}

func (s *server) handleRegisterQuery(w http.ResponseWriter, r *http.Request) {
	var spec querySpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON body: %v", err)
		return
	}
	if spec.Name == "" {
		httpError(w, http.StatusBadRequest, "missing query name")
		return
	}
	rq, err := s.buildQuery(&spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.Lock()
	_, dup := s.queries[spec.Name]
	if !dup {
		s.queries[spec.Name] = rq
	}
	s.mu.Unlock()
	if dup {
		httpError(w, http.StatusConflict, "query %q already registered", spec.Name)
		return
	}
	// Persist the definition so recovery re-registers it. On failure the
	// registration is rolled back: a query that exists in memory but not
	// in the log would silently vanish at the next restart.
	if err := s.cat.PutQueryDef(spec.def()); err != nil {
		s.mu.Lock()
		delete(s.queries, spec.Name)
		s.mu.Unlock()
		httpError(w, s.mutationStatus(err, http.StatusInternalServerError), "persisting query %q: %v", spec.Name, err)
		return
	}
	explain, err := rq.liveExplain()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"name": spec.Name, "vars": rq.outVars, "explain": explain})
}

func (s *server) handleListQueries(w http.ResponseWriter, r *http.Request) {
	type queryInfo struct {
		Name    string              `json:"name"`
		Query   string              `json:"query"`
		Engine  string              `json:"engine"`
		GAO     []string            `json:"gao,omitempty"`
		Workers int                 `json:"workers,omitempty"`
		Runs    int64               `json:"runs"`
		Explain minesweeper.Explain `json:"explain"`
	}
	s.mu.Lock()
	queries := make(map[string]*registeredQuery, len(s.queries))
	for name, rq := range s.queries {
		queries[name] = rq
	}
	s.mu.Unlock()
	out := make([]queryInfo, 0, len(queries))
	for name, rq := range queries {
		// Live plan, refreshed against the current data — a mutation
		// re-plans prepared queries, and the listing must agree with
		// what the next run's stream header will say. Computed outside
		// s.mu: Refresh can rebuild indexes.
		explain, err := rq.liveExplain()
		if err != nil {
			httpError(w, http.StatusInternalServerError, "query %q: %v", name, err)
			return
		}
		out = append(out, queryInfo{
			Name: name, Query: rq.expr, Engine: rq.opts.Engine.String(),
			GAO: rq.opts.GAO, Workers: rq.opts.Workers, Runs: rq.runs.Load(),
			Explain: explain,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleDropQuery(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	_, ok := s.queries[name]
	delete(s.queries, name)
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown query %q", name)
		return
	}
	if err := s.cat.DropQueryDef(name); err != nil {
		httpError(w, s.mutationStatus(err, http.StatusInternalServerError), "unpersisting query %q: %v", name, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"dropped": true})
}

// runParams are the per-run knobs, from URL parameters (registered
// queries) or the spec body (ad-hoc queries).
type runParams struct {
	limit   int
	timeout time.Duration
	engine  string // "" = query default
	workers int    // <0 = query default
}

func parseRunParams(r *http.Request) (runParams, error) {
	p := runParams{workers: -1}
	q := r.URL.Query()
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return p, fmt.Errorf("bad limit %q", v)
		}
		if n < 0 {
			n = 0 // negative means unlimited, like the library's ExecuteLimit
		}
		p.limit = n
	}
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return p, fmt.Errorf("bad timeout %q", v)
		}
		p.timeout = d
	}
	p.engine = q.Get("engine")
	if v := q.Get("workers"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return p, fmt.Errorf("bad workers %q", v)
		}
		p.workers = n
	}
	return p, nil
}

func (s *server) handleRunQuery(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	rq, ok := s.queries[name]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown query %q", name)
		return
	}
	params, err := parseRunParams(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.streamRun(w, r, rq, params)
}

func (s *server) handleAdhocQuery(w http.ResponseWriter, r *http.Request) {
	var spec querySpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON body: %v", err)
		return
	}
	rq, err := s.buildQuery(&spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	params := runParams{limit: spec.Limit, workers: -1}
	if params.limit < 0 {
		params.limit = 0 // negative means unlimited
	}
	if spec.Timeout != "" {
		d, err := time.ParseDuration(spec.Timeout)
		if err != nil || d < 0 {
			httpError(w, http.StatusBadRequest, "bad timeout %q", spec.Timeout)
			return
		}
		params.timeout = d
	}
	s.streamRun(w, r, rq, params)
}

// streamRun executes one query run and streams the result as NDJSON:
// a header line {"vars":…,"engine":…,"gao":…}, one JSON array per
// output tuple, and a footer line {"done":true,…} with the run's stats.
// Timeouts and client disconnects end the stream early with the tuples
// already emitted — the anytime contract of the streaming executor —
// and the footer reports the cut ("timed_out", "canceled", "aborted"
// or "error").
//
// The 200 status and NDJSON header are written lazily, at the first
// output tuple (or at successful completion): a run that dies before
// producing anything gets a real HTTP status instead of a 200 with a
// bare error footer — 504 when the server-side deadline expired, 499
// when the client went away, 503 at shutdown, 500 for an engine panic.
// Once tuples are on the wire the status is fixed, and the outcome
// rides in the terminal footer record instead.
//
// The engine executes behind a recover boundary: a panicking query
// becomes a 500 (or a terminal error record mid-stream) and a /stats
// counter bump, never a dead process. The only goroutines a run starts
// are its range-morsel workers (Workers), which recover their panics
// into errors themselves, so this boundary completes the isolation for
// every engine path, sharded or not.
func (s *server) streamRun(w http.ResponseWriter, r *http.Request, rq *registeredQuery, params runParams) {
	release, err := s.runGate.acquire(r.Context())
	if err != nil {
		admissionError(w, err)
		return
	}
	defer release()

	eng := rq.opts.Engine
	if params.engine != "" {
		e, err := minesweeper.ParseEngine(params.engine)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		eng = e
	}
	if eng == minesweeper.EngineAuto {
		eng = minesweeper.EngineMinesweeper
	}
	workers := rq.opts.Workers
	if params.workers >= 0 {
		workers = params.workers
	}
	pq, err := rq.variant(eng, workers)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Refresh before the response status goes out: a mutation since the
	// last run may re-plan, and a re-plan failure (e.g. a relation
	// emptied into an invalid state) should surface as a clean 400
	// here, while the HTTP status can still carry it.
	if err := pq.Refresh(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// A plan holds its relations by pointer, so it survives a catalog
	// Drop — but serving from a dropped (or dropped-and-recreated)
	// relation would silently return stale data forever. Refuse instead:
	// the caller must re-register against the current catalog.
	for _, rel := range pq.Relations() {
		if cur, ok := s.cat.Get(rel.Name()); !ok || cur != rel {
			httpError(w, http.StatusGone, "relation %q was dropped or replaced since the query was built; re-register it", rel.Name())
			return
		}
	}

	// Server-side deadline: the client's timeout applies when it is
	// tighter than -run-timeout; absent or looser, the server's own
	// deadline clamps the run so a stuck query cannot hold a slot
	// forever.
	ctx := r.Context()
	timeout := params.timeout
	if s.cfg.runTimeout > 0 && (timeout <= 0 || timeout > s.cfg.runTimeout) {
		timeout = s.cfg.runTimeout
	}
	if timeout > 0 {
		var cancel func()
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	// Registered with the drain path, which aborts straggler streams
	// with errDraining as the cause so they end with a terminal error
	// record instead of just stopping mid-stream.
	ctx, abortCause := context.WithCancelCause(ctx)
	defer abortCause(nil)
	h := &streamHandle{abort: abortCause}
	s.addStream(h)
	defer s.removeStream(h)

	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	// "vars" is the column order of the tuple lines (projection or
	// first-appearance order); "gao" is the evaluation order the stream
	// is sorted by. They are distinct invariants — see Result.Vars/GAO.
	// The header is written from the run's own pinned plan (the plan
	// callback fires after any transparent re-plan, before the first
	// tuple), so "gao" always names the order the stream is actually
	// sorted by, even when a mutation races the run.
	var headerExplain minesweeper.Explain
	started := false
	start := func() {
		if started {
			return
		}
		started = true
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		enc.Encode(map[string]any{"vars": pq.OutputVars(), "engine": pq.Engine().String(), "gao": headerExplain.GAO})
		flush()
	}

	// Tuples are encoded by hand into one per-stream scratch buffer —
	// a JSON array of ints needs no escaping or reflection — so the
	// emit path writes each line with zero allocations instead of
	// paying json.Encoder's per-Encode marshalling.
	line := make([]byte, 0, 64)
	count := 0
	panicked := false
	stats, runErr := func() (st minesweeper.Stats, err error) {
		defer func() {
			if p := recover(); p != nil {
				panicked = true
				log.Printf("recovered engine panic serving %q: %v\n%s", rq.expr, p, debug.Stack())
				err = fmt.Errorf("engine panic: %v", p)
			}
		}()
		return pq.StreamContextExplained(ctx, func(ex minesweeper.Explain) { headerExplain = ex }, func(t []int) bool {
			if s.cfg.emitHook != nil {
				s.cfg.emitHook(t)
			}
			start()
			line = appendTupleLine(line[:0], t)
			w.Write(line)
			flush()
			count++
			return params.limit <= 0 || count < params.limit
		})
	}()

	// Classify the outcome. A DeadlineExceeded can only come from the
	// run's own timer (server deadline or the client's requested
	// timeout — both enforced server-side); a Canceled is the client
	// going away, unless the drain path set errDraining as the cause.
	drained := errors.Is(context.Cause(ctx), errDraining)
	timedOut := !drained && errors.Is(runErr, context.DeadlineExceeded)
	clientGone := !drained && !timedOut && errors.Is(runErr, context.Canceled)

	if !started && runErr != nil {
		// Nothing on the wire yet: the outcome can be a real status.
		switch {
		case timedOut:
			httpError(w, http.StatusGatewayTimeout, "server-side deadline exceeded after %s", timeout)
		case drained:
			httpError(w, http.StatusServiceUnavailable, "%v", errDraining)
		case clientGone:
			httpError(w, 499, "client closed request") // nothing will read this; the status keeps logs honest
		default: // engine panic or any other execution error
			httpError(w, http.StatusInternalServerError, "%v", runErr)
		}
	} else {
		start() // successful empty result: header still goes out
		footer := map[string]any{
			"done":      true,
			"tuples":    count,
			"limited":   params.limit > 0 && count >= params.limit,
			"timed_out": timedOut,
			"stats":     &stats,
		}
		if drained {
			footer["aborted"] = true
			footer["error"] = errDraining.Error()
		}
		if clientGone {
			footer["canceled"] = true
		}
		if runErr != nil && !timedOut && !drained && !clientGone {
			footer["error"] = runErr.Error()
		}
		enc.Encode(footer)
		flush()
	}

	rq.runs.Add(1)
	s.statsMu.Lock()
	s.agg.Add(&stats)
	s.runs++
	s.served += int64(count)
	if runErr != nil || (params.limit > 0 && count >= params.limit) {
		s.expired++
	}
	switch {
	case timedOut:
		s.deadline++
	case clientGone:
		s.canceled++
	case drained:
		s.aborted++
	}
	if panicked {
		s.panics++
	}
	s.statsMu.Unlock()
}

// appendTupleLine renders one output tuple as a JSON array line.
func appendTupleLine(buf []byte, t []int) []byte {
	buf = append(buf, '[')
	for i, v := range t {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	return append(buf, ']', '\n')
}

// allocSamples names the runtime/metrics series behind the /stats
// allocation counters.
var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

// readHeapAllocs returns the process-lifetime heap allocation counters.
// Deltas across a run are a best-effort allocs/op-style measure: they
// include whatever else the process did meanwhile (concurrent runs,
// GC bookkeeping), which is exactly the server-wide view /stats wants.
func readHeapAllocs() (objects, bytes uint64) {
	// Stack-local sample array: the measurement itself must not land in
	// the allocation window it reports on.
	var s [2]metrics.Sample
	copy(s[:], allocSamples)
	metrics.Read(s[:])
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// --- stats -----------------------------------------------------------

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	nq := len(s.queries)
	s.mu.Unlock()
	allocObjs, allocBytes := readHeapAllocs()
	s.statsMu.Lock()
	// Server-lifetime allocation counters: one delta against the
	// start-of-process baseline, so concurrent runs are never
	// double-counted. The totals include the server's own HTTP/catalog
	// work — they are an allocs/op-style health signal, not an exact
	// per-query attribution.
	allocObjs -= s.allocObjs0
	allocBytes -= s.allocBytes0
	degraded := s.cat.Degraded()
	s.reopenMu.Lock()
	reopenAttempts, lastReopenErr := s.reopenAttempts, s.lastReopenErr
	s.reopenMu.Unlock()
	health := map[string]any{
		"read_only":       degraded != nil,
		"draining":        s.draining.Load(),
		"panics":          s.panics,
		"reopen_attempts": reopenAttempts,
	}
	if degraded != nil {
		health["reason"] = degraded.Error()
	}
	if lastReopenErr != "" {
		health["last_reopen_error"] = lastReopenErr
	}
	body := map[string]any{
		"relations":            s.cat.Len(),
		"queries":              nq,
		"storage":              s.cat.StorageStats(),
		"executions":           s.runs,
		"tuples_served":        s.served,
		"cut_short":            s.expired,
		"deadline_expired":     s.deadline,
		"client_canceled":      s.canceled,
		"aborted_streams":      s.aborted,
		"certificate_estimate": s.agg.CertificateEstimate(),
		"stats":                s.agg,
		"admission": map[string]gateStats{
			"runs":      s.runGate.stats(),
			"mutations": s.mutGate.stats(),
		},
		"health":              health,
		"alloc_objects_total": allocObjs,
		"alloc_bytes_total":   allocBytes,
		// Process-wide index construction: every search tree built, and
		// how many of those were merged forward from a cached index after
		// a mutation rather than re-sorted. Writes that keep hitting the
		// merge path move both counters together.
		"index_builds_total": reltree.Builds(),
		"index_merges_total": reltree.Merges(),
	}
	// Per-shard data volume and storage health. Reads never fail over,
	// so failovers counts write-path moves of a shard's primary replica
	// only.
	body["shards"] = s.cat.ShardStats()
	health["failovers"] = s.cat.Failovers()
	if s.runs > 0 {
		body["alloc_objects_per_run"] = float64(allocObjs) / float64(s.runs)
		body["alloc_bytes_per_run"] = float64(allocBytes) / float64(s.runs)
	}
	if s.served > 0 {
		body["alloc_objects_per_tuple"] = float64(allocObjs) / float64(s.served)
	}
	s.statsMu.Unlock()
	writeJSON(w, http.StatusOK, body)
}
