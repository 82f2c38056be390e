// Command msserve exposes the minesweeper join library as a long-lived
// HTTP service: load relations in the relio text format, mutate them in
// place, register named prepared queries, and execute them with
// streaming NDJSON responses — the serving-side counterpart to the
// anytime, certificate-driven evaluation the library implements.
//
// Endpoints:
//
//	GET    /relations               list relations (name, vars, tuples, epoch)
//	POST   /relations               load a relation (relio text body; replaces same-arity duplicates)
//	GET    /relations/{name}        dump a relation in relio format
//	DELETE /relations/{name}        drop a relation
//	POST   /relations/{name}/insert add tuples              {"tuples": [[1,2], …]}
//	POST   /relations/{name}/delete remove tuples           {"tuples": [[1,2], …]}
//	GET    /queries                 list registered queries
//	POST   /queries                 register a prepared query {"name":…, "query":"R(A,B), S(B,C)", …}
//	DELETE /queries/{name}          unregister
//	GET    /queries/{name}/run      execute; ?limit=&timeout=&engine=&workers=
//	POST   /query                   one-shot query (spec + limit/timeout in the body)
//	GET    /stats                   aggregate certificate/output/admission/health counters
//	GET    /healthz                 liveness probe (always 200 while the process serves)
//	GET    /readyz                  readiness probe (503 while degraded read-only or draining)
//
// Run responses are NDJSON: a header line with the output variable
// order, one JSON array per tuple (streamed as the engine finds them),
// and a footer line with the run's stats. A timeout ends the stream
// early but cleanly: the tuples already found are on the wire and the
// footer says "timed_out": true.
//
// Usage:
//
//	msserve [-addr :8080] [-data-dir DIR] [relation files…]
//
// Relation files given on the command line are preloaded into the
// catalog at startup.
//
// The data plane is always one owner of -shards N x -replicas R
// (defaults 1 x 1): every relation is held in memory once and its rows
// are logged, by partition, to N shard logs, each kept on R synchronous
// replicas; a query runs once over the relations (a range partition's
// splits cut its morsels).
// With -data-dir it is durable: each replica has its own directory (shard-<i>/replica-<j>/, routing in shards.json), every
// mutation is appended to a CRC-checked write-ahead log before it
// applies, the log compacts into full snapshots as it grows, and a
// restart — clean or not — recovers every relation (tuples, variable
// bindings, mutation epochs) and re-registers every named prepared
// query, replaying the WAL over the newest snapshot and truncating a
// torn tail. Without -data-dir everything stays in memory.
//
// A replica whose storage poisons is failed over: mutations keep
// logging to its healthy siblings, running queries finish on the
// in-memory relations they pinned (the stream stays byte-identical),
// and the background reopen loop recovers each dead replica on an
// independent backoff schedule while /readyz stays ready.
//
// The serving plane defends itself: -max-runs/-max-mutations bound the
// concurrent work admitted (the overflow queue is capped at
// -queue-depth; beyond it requests are shed with 429 + Retry-After),
// -run-timeout clamps every execution to a server-side deadline (504
// when it expires before the first tuple), and an engine panic becomes
// a 500 — never a dead process. When a shard's last healthy replica
// poisons on a write failure the server degrades to read-only: queries
// keep serving, mutations return 503, /readyz reports not-ready, and
// the same reopen loop brings the store back.
//
// On SIGINT/SIGTERM the server drains: no new requests are accepted,
// in-flight NDJSON streams get up to -drain-timeout to finish, and
// stragglers are ended with a terminal "aborted" error record before
// the storage backend closes with a final WAL sync.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"minesweeper/internal/shard"
	"minesweeper/internal/storage"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dataDir := flag.String("data-dir", "", "durable storage directory (empty = in-memory, nothing survives a restart)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long in-flight streams may drain at shutdown")
	fsync := flag.Bool("fsync", false, "with -data-dir: fsync the WAL on every mutation (safer, slower)")
	shards := flag.Int("shards", 1, "partition relations across N shards; a range partition's splits cut each run's morsels (with -data-dir: one WAL directory per shard)")
	replicas := flag.Int("replicas", 1, "log every shard to R synchronous replicas (its data stays in memory once); a poisoned replica is failed over on the next mutation")
	cfg := defaultServerConfig()
	flag.IntVar(&cfg.maxRuns, "max-runs", cfg.maxRuns, "max concurrent query executions (<=0 unlimited)")
	flag.IntVar(&cfg.maxMutations, "max-mutations", cfg.maxMutations, "max concurrent catalog mutations (<=0 unlimited)")
	flag.IntVar(&cfg.queueDepth, "queue-depth", cfg.queueDepth, "requests allowed to wait for an admission slot before load shedding (429)")
	flag.DurationVar(&cfg.runTimeout, "run-timeout", cfg.runTimeout, "server-side deadline per query run; client timeouts are clamped to it (0 disables)")
	flag.Parse()

	// One data plane for every configuration: N shards x R replicas
	// (defaults 1 x 1), over memory or — each replica with its own WAL
	// directory — under -data-dir.
	sopts := storage.Options{FsyncEach: *fsync}
	cat, where := shard.NewReplicated(*shards, *replicas), "memory"
	if dir := *dataDir; dir != "" {
		var err error
		if cat, err = shard.OpenReplicated(dir, *shards, *replicas, sopts); err != nil {
			fmt.Fprintf(os.Stderr, "msserve: opening -data-dir: %v\n", err)
			os.Exit(1)
		}
		where = dir
		// Degraded-mode recovery: a replica whose WAL poisons on a write
		// failure is failed over, or — the shard's last one — turns the
		// store read-only; the server retries a fresh open of its
		// directory with capped exponential backoff until the failure
		// clears (disk freed, volume remounted, …).
		cfg.reopenTargets = downReplicaTargets(cat, func(i, j int) (storage.Backend, error) {
			return storage.OpenDurable(shard.ReplicaDir(dir, i, j), sopts)
		})
	}
	log.Printf("data plane: %d shards x %d replicas, %s", cat.Shards(), cat.ReplicaCount(), where)
	if st := cat.StorageStats(); st.Mode == "durable" {
		log.Printf("recovered %d relations and %d query definitions from %s (snapshot seq %d, %d WAL records replayed)",
			st.RecoveredRelations, st.RecoveredQueries, st.Dir, st.Seq, st.ReplayedRecords)
		if st.TruncatedBytes > 0 {
			log.Printf("warning: truncated %d torn trailing bytes from the WAL", st.TruncatedBytes)
		}
	}

	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "msserve: %v\n", err)
			os.Exit(1)
		}
		info, err := cat.Load(f, path)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "msserve: %v\n", err)
			os.Exit(1)
		}
		log.Printf("loaded %s: %d tuples over %v", info.Name, info.Tuples, info.Vars)
	}

	srv := newServerWith(cat, cfg)
	defer srv.Close()
	if restored, failed := srv.restoreQueries(); restored > 0 || len(failed) > 0 {
		log.Printf("re-registered %d prepared queries", restored)
		for _, err := range failed {
			log.Printf("warning: could not restore %v", err)
		}
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		errc <- httpSrv.ListenAndServe()
	}()
	log.Printf("msserve listening on %s (%d relations)", *addr, cat.Len())

	select {
	case err := <-errc:
		cat.Close()
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of draining

	srv.draining.Store(true) // /readyz flips not-ready for the load balancer
	log.Printf("shutting down: draining in-flight streams (up to %s)", *drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			// Streams still running at the deadline are aborted through
			// their run contexts, so each handler writes a terminal error
			// record ("aborted": true) before its connection ends — the
			// client can tell a cut stream from a complete result set.
			n := srv.abortStreams()
			log.Printf("drain timeout reached; aborting %d straggler streams", n)
			finalCtx, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel2()
			if err := httpSrv.Shutdown(finalCtx); err != nil {
				log.Printf("closing remaining connections: %v", err)
				httpSrv.Close()
			}
		} else {
			log.Printf("shutdown: %v", err)
		}
	}
	// Final WAL sync: everything appended before the listener closed is
	// on stable storage before the process exits.
	if err := cat.Close(); err != nil {
		log.Printf("closing storage: %v", err)
	}
	log.Printf("msserve stopped")
}
