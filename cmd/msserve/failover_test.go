package main

import (
	"net/http"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"minesweeper/internal/shard"
	"minesweeper/internal/storage"
)

// The replicated-serving acceptance path: a 4-shard × 2-replica server
// whose primary backend is killed mid-stream must deliver the
// byte-identical NDJSON stream (the run reads the fragments it pinned),
// fail over on the next mutation that reaches the dead primary, keep
// accepting mutations, report the failover in /stats, self-heal through
// the background reopen loop, and survive a rolling reopen of every
// replica with /readyz never leaving 200.
func TestReplicatedFailoverAcceptance(t *testing.T) {
	const shards, replicas = 4, 2
	dir := t.TempDir()
	// Every replica's durable backend is wrapped in the fault layer,
	// scripted to poison on its first explicit Sync — a kill switch the
	// test can flip per replica with zero data change.
	var faulty [shards][replicas]*storage.Faulty
	sc, err := shard.OpenWith(dir, shards, replicas, func(i, j int) (storage.Backend, error) {
		d, err := storage.OpenDurable(shard.ReplicaDir(dir, i, j), storage.Options{})
		if err != nil {
			return nil, err
		}
		f, err := storage.NewFaulty(d, "sync@1=err")
		if err != nil {
			return nil, err
		}
		faulty[i][j] = f
		return f, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })

	// A dense join so the run is still streaming when the
	// replica is poisoned mid-stream.
	var rT, sT [][]int
	for i := 0; i < 500; i++ {
		rT = append(rT, []int{i, (i * 3) % 50})
		sT = append(sT, []int{(i * 3) % 50, i % 20})
	}
	if _, err := sc.Create("E", []string{"a", "b"}, rT); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Create("F", []string{"b", "c"}, sT); err != nil {
		t.Fatal(err)
	}

	kill := make(chan *storage.Faulty, 1)
	cfg := defaultServerConfig()
	cfg.reopenBase = 2 * time.Millisecond
	cfg.reopenPoll = 10 * time.Millisecond
	// The reopen loop stays off until the failover has been observed:
	// healed first, the poisoned primary would take the mutation itself.
	var heal atomic.Bool
	targets := downReplicaTargets(sc, func(i, j int) (storage.Backend, error) {
		return storage.OpenDurable(shard.ReplicaDir(dir, i, j), storage.Options{})
	})
	cfg.reopenTargets = func() []reopenTarget {
		if !heal.Load() {
			return nil
		}
		return targets()
	}
	emitted := 0
	cfg.emitHook = func([]int) {
		emitted++
		if emitted == 5 {
			select {
			case f := <-kill:
				f.Sync() // poisons the backend; the fragment is untouched
			default:
			}
		}
	}
	s := newServerWith(sc, cfg)
	t.Cleanup(s.Close)

	wantStatus(t, do(t, s, "POST", "/queries", `{"name":"rs","query":"E(A,B), F(B,C)"}`), http.StatusOK)

	// Reference stream with no fault armed.
	ref := parseRun(t, do(t, s, "GET", "/queries/rs/run", "").Body)

	// Kill shard 0's primary mid-stream: the run finishes on the
	// fragments it pinned, byte-identically.
	victim := sc.Primary(0)
	kill <- faulty[0][victim]
	emitted = 0
	rec := do(t, s, "GET", "/queries/rs/run", "")
	wantStatus(t, rec, http.StatusOK)
	got := parseRun(t, rec.Body)
	if !reflect.DeepEqual(got.header, ref.header) || !reflect.DeepEqual(got.tuples, ref.tuples) {
		t.Fatalf("stream across replica kill diverges: %d tuples vs %d", len(got.tuples), len(ref.tuples))
	}
	if down := sc.DownReplicas(); len(down) != 1 || down[0].Shard != 0 || down[0].Replica != victim {
		t.Fatalf("DownReplicas = %+v, want shard 0 replica %d", down, victim)
	}

	// Failover is a write-path event: a load writes every shard, so
	// it reaches shard 0, finds the primary poisoned and promotes the
	// sibling. Mutations keep succeeding on the promoted primary; /readyz
	// stays ready throughout (a healthy replica remains).
	wantStatus(t, do(t, s, "POST", "/relations", "G: x\n1\n2\n3\n4\n"), http.StatusOK)
	if got := sc.Primary(0); got == victim {
		t.Fatalf("shard 0 primary still %d after a mutation hit its dead backend", victim)
	}
	wantStatus(t, do(t, s, "POST", "/relations/E/insert", `{"tuples":[[900,1],[901,2],[902,3],[903,4]]}`), http.StatusOK)
	wantStatus(t, do(t, s, "GET", "/readyz", ""), http.StatusOK)
	health, _ := statsBody(t, s)["health"].(map[string]any)
	if n, _ := health["failovers"].(float64); n < 1 {
		t.Fatalf("failovers = %v, want >= 1", health["failovers"])
	}

	// The background reopen loop heals the killed replica on its own.
	heal.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for len(sc.DownReplicas()) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("reopen loop never healed %+v", sc.DownReplicas())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Rolling reopen of every replica, /readyz polled between each swap:
	// zero read downtime.
	for i := 0; i < shards; i++ {
		for j := 0; j < replicas; j++ {
			if err := sc.ReopenReplica(i, j, func() (storage.Backend, error) {
				return storage.OpenDurable(shard.ReplicaDir(dir, i, j), storage.Options{})
			}); err != nil {
				t.Fatalf("ReopenReplica(%d, %d): %v", i, j, err)
			}
			wantStatus(t, do(t, s, "GET", "/readyz", ""), http.StatusOK)
		}
	}
	// The rolled catalog still answers with the post-insert stream.
	rec = do(t, s, "GET", "/queries/rs/run", "")
	wantStatus(t, rec, http.StatusOK)
	if n := len(parseRun(t, rec.Body).tuples); n <= len(ref.tuples) {
		t.Fatalf("post-roll run returned %d tuples, want > %d (insert landed)", n, len(ref.tuples))
	}
}
