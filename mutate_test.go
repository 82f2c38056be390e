package minesweeper

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"minesweeper/internal/reltree"
)

func TestRelationMutators(t *testing.T) {
	r := rel(t, "R", 2, [][]int{{1, 2}, {2, 3}})
	if r.Epoch() != 0 {
		t.Fatalf("fresh epoch = %d", r.Epoch())
	}
	// Build an index, then mutate: the cached index is carried (the next
	// execution merges the batch into it), not dropped.
	q, err := NewQuery(Atom{Rel: r, Vars: []string{"A", "B"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Prepare(nil); err != nil {
		t.Fatal(err)
	}
	if r.CachedIndexes() != 1 {
		t.Fatalf("CachedIndexes = %d, want 1", r.CachedIndexes())
	}
	if err := r.Insert([]int{5, 6}); err != nil {
		t.Fatal(err)
	}
	if r.Epoch() != 1 || r.Len() != 3 || r.CachedIndexes() != 1 {
		t.Fatalf("after Insert: epoch=%d len=%d cached=%d", r.Epoch(), r.Len(), r.CachedIndexes())
	}

	// Validation: wrong arity and negative values are rejected without
	// mutating.
	if err := r.Insert([]int{1}); err == nil {
		t.Fatal("arity-1 insert accepted")
	}
	if err := r.Insert([]int{1, -1}); err == nil {
		t.Fatal("negative insert accepted")
	}
	if err := r.Insert([]int{1, 1 << 60}); err == nil {
		t.Fatal("out-of-domain insert accepted (would poison later index builds)")
	}
	if r.Epoch() != 1 || r.Len() != 3 {
		t.Fatalf("failed insert mutated: epoch=%d len=%d", r.Epoch(), r.Len())
	}
	// Empty insert is a no-op.
	if err := r.Insert(); err != nil || r.Epoch() != 1 {
		t.Fatalf("empty insert: err=%v epoch=%d", err, r.Epoch())
	}

	// Delete removes all copies and reports the count; misses are free.
	if err := r.Insert([]int{5, 6}); err != nil { // duplicate row
		t.Fatal(err)
	}
	n, err := r.Delete([]int{5, 6}, []int{9, 9})
	if err != nil || n != 2 {
		t.Fatalf("Delete = %d, %v; want 2, nil", n, err)
	}
	epoch := r.Epoch()
	if n, _ := r.Delete([]int{9, 9}); n != 0 {
		t.Fatalf("miss delete removed %d", n)
	}
	if r.Epoch() != epoch {
		t.Fatal("no-op delete bumped the epoch")
	}

	// Replace swaps contents wholesale.
	if err := r.Replace([][]int{{7, 8}}); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || !reflect.DeepEqual(r.Tuples(), [][]int{{7, 8}}) {
		t.Fatalf("after Replace: %v", r.Tuples())
	}

	// Tuples returns a snapshot: appending to it must not affect r.
	snap := r.Tuples()
	_ = append(snap, []int{0, 0})
	if r.Len() != 1 {
		t.Fatal("Tuples snapshot aliases the relation")
	}
}

// TestPreparedReflectsMutationAllEngines: a prepared query (every
// engine) transparently serves the post-mutation data on its next
// execution, and re-binding after a mutation only rebuilds the mutated
// relation's index.
func TestPreparedReflectsMutationAllEngines(t *testing.T) {
	for _, eng := range allEngines {
		r := rel(t, "R", 2, [][]int{{1, 2}, {2, 3}})
		s := rel(t, "S", 2, [][]int{{2, 5}, {3, 7}})
		q, err := NewQuery(
			Atom{Rel: r, Vars: []string{"A", "B"}},
			Atom{Rel: s, Vars: []string{"B", "C"}},
		)
		if err != nil {
			t.Fatal(err)
		}
		pq, err := q.Prepare(&Options{Engine: eng})
		if err != nil {
			t.Fatalf("engine %v: %v", eng, err)
		}
		res, err := pq.Execute()
		if err != nil {
			t.Fatalf("engine %v: %v", eng, err)
		}
		if len(res.Tuples) != 2 {
			t.Fatalf("engine %v: initial %v", eng, res.Tuples)
		}
		if err := r.Insert([]int{9, 3}); err != nil {
			t.Fatal(err)
		}
		before := reltree.Builds()
		res, err = pq.Execute()
		if err != nil {
			t.Fatalf("engine %v: %v", eng, err)
		}
		if len(res.Tuples) != 3 {
			t.Fatalf("engine %v: after insert %v", eng, res.Tuples)
		}
		// Exactly one rebuild: R's single column order. S stayed cached.
		if got := reltree.Builds() - before; got != 1 {
			t.Fatalf("engine %v: re-bind rebuilt %d indexes, want 1", eng, got)
		}
	}
}

// countdownCtx cancels itself after its Err method has been polled n
// times — a deterministic stand-in for a deadline that fires mid-run.
type countdownCtx struct {
	context.Context
	calls int
	limit int // 0 = never cancel, just count
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.limit > 0 && c.calls > c.limit {
		return context.Canceled
	}
	return c.Context.Err()
}

// TestExecuteContextPartialResultOnCancel pins the partial-result
// contract: when the context dies mid-run, ExecuteContext returns the
// tuples collected so far alongside the error — a prefix of the full
// GAO-ordered result — instead of discarding them.
func TestExecuteContextPartialResultOnCancel(t *testing.T) {
	q := streamQuery(t, 29)
	gao, _ := q.RecommendGAO()
	pq, err := q.Prepare(&Options{GAO: gao})
	if err != nil {
		t.Fatal(err)
	}
	full, err := pq.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Tuples) < 4 {
		t.Fatalf("want ≥4 tuples, got %d", len(full.Tuples))
	}

	// Calibrate: count context polls until the 2nd tuple is out.
	probe := &countdownCtx{Context: context.Background()}
	seen := 0
	if _, err := pq.StreamContext(probe, func([]int) bool {
		seen++
		return seen < 2
	}); err != nil {
		t.Fatal(err)
	}

	// Re-run the identical evaluation, cancelling after that many polls:
	// at least those 2 tuples are in, and the run cannot finish.
	ctx := &countdownCtx{Context: context.Background(), limit: probe.calls}
	res, err := pq.ExecuteContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("res = nil: partial result discarded")
	}
	if len(res.Tuples) < 2 || len(res.Tuples) >= len(full.Tuples) {
		t.Fatalf("partial result has %d tuples, want in [2, %d)", len(res.Tuples), len(full.Tuples))
	}
	if !reflect.DeepEqual(res.Tuples, full.Tuples[:len(res.Tuples)]) {
		t.Fatal("partial result is not a prefix of the full result")
	}
	if res.Stats.Outputs != int64(len(res.Tuples)) {
		t.Fatalf("partial stats: Outputs=%d, tuples=%d", res.Stats.Outputs, len(res.Tuples))
	}

	// Same contract through ExecuteLimitContext with a generous limit.
	ctx = &countdownCtx{Context: context.Background(), limit: probe.calls}
	res, err = pq.ExecuteLimitContext(ctx, len(full.Tuples)+10)
	if !errors.Is(err, context.Canceled) || res == nil || len(res.Tuples) < 2 {
		t.Fatalf("limit variant: res=%v err=%v", res, err)
	}

	// And through the top-level helpers (which prepare internally).
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, eng := range allEngines {
		res, err := ExecuteContext(cancelled, q, &Options{Engine: eng, GAO: gao})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("engine %v: err = %v", eng, err)
		}
		if res == nil {
			t.Fatalf("engine %v: nil result on cancellation", eng)
		}
		res, err = ExecuteLimitContext(cancelled, q, &Options{Engine: eng, GAO: gao}, 5)
		if !errors.Is(err, context.Canceled) || res == nil {
			t.Fatalf("engine %v limit: res=%v err=%v", eng, res, err)
		}
	}
}

// TestPrepareUnknownEngineMessage: the error must name the engine that
// was actually looked up, not the pre-resolution option value.
func TestPrepareUnknownEngineMessage(t *testing.T) {
	q := streamQuery(t, 31)
	_, err := q.Prepare(&Options{Engine: Engine(42)})
	if err == nil {
		t.Fatal("Prepare accepted engine(42)")
	}
	if !strings.Contains(err.Error(), "engine(42)") {
		t.Fatalf("error %q does not name the resolved engine", err)
	}
	if strings.Contains(err.Error(), "auto") {
		t.Fatalf("error %q names the unresolved option", err)
	}
}

// TestSelfJoinNeverTearsAcrossEpochs: all atoms of a query that bind
// the same relation must see one version of it. The fixture is chosen
// so a torn binding is observable: with E = {(1,2),(2,3)} the self-join
// E(A,B) ⋈ E(B,C) has 1 tuple, with the extra edge (3,1) it has 3 —
// but one atom at the old epoch and one at the new yields 2.
func TestSelfJoinNeverTearsAcrossEpochs(t *testing.T) {
	e := rel(t, "E", 2, [][]int{{1, 2}, {2, 3}})
	q, err := NewQuery(
		Atom{Rel: e, Vars: []string{"A", "B"}},
		Atom{Rel: e, Vars: []string{"B", "C"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := q.Prepare(nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if err := e.Insert([]int{3, 1}); err != nil {
				t.Error(err)
				return
			}
			if _, err := e.Delete([]int{3, 1}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		res, err := pq.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if n := len(res.Tuples); n != 1 && n != 3 {
			t.Fatalf("self-join saw %d tuples (%v): atoms bound different epochs", n, res.Tuples)
		}
	}
	<-done
}
