package shard

import (
	"fmt"
	"testing"

	minesweeper "minesweeper"
	"minesweeper/internal/catalog"
)

// mutator is what the cut test drives: a shard.Catalog, or the plain
// catalog that serves as its reference model.
type mutator interface {
	Insert(name string, tuples ...[]int) (catalog.Info, error)
	Delete(name string, tuples ...[]int) (int, catalog.Info, error)
}

// cutStep is one insert or delete batch of the cut test.
type cutStep struct {
	insert bool
	rel    string
	tuples [][]int
}

func (s cutStep) apply(m mutator) error {
	if s.insert {
		_, err := m.Insert(s.rel, s.tuples...)
		return err
	}
	_, _, err := m.Delete(s.rel, s.tuples...)
	return err
}

// cutSteps inserts and then deletes batches of both relations of
// pinRels. Each batch reaches every shard — E's b values span the range
// partition of its seed rows, F's new c values span cutSplits — and
// each joins with the other relation's seed rows.
func cutSteps() []cutStep {
	var steps []cutStep
	for k := 0; k < 12; k++ {
		var e, f [][]int
		for i := 0; i < 16; i++ {
			e = append(e, []int{1000 + 16*k + i, (7 * i) % 50})
			f = append(f, []int{(7*i + k) % 50, 100 + 50*i + k})
		}
		steps = append(steps, cutStep{true, "E", e}, cutStep{true, "F", f}, cutStep{false, "E", e}, cutStep{false, "F", f})
	}
	return steps
}

// cutSplits range-partitions F's c column over n shards so that every
// F batch of cutSteps reaches every shard.
func cutSplits(n int) []int {
	var splits []int
	for i := 1; i < n; i++ {
		splits = append(splits, 100+i*800/n)
	}
	return splits
}

// TestRunReadsOneCut: runs of one prepared query race insert and delete
// batches that reach every shard and both atoms. Every run must stream
// exactly what the query yields over one state the catalog passed
// through — never one shard's fragment after a mutation beside
// another's before it, nor a fragment beside a stale gathered copy.
func TestRunReadsOneCut(t *testing.T) {
	// One order for every state, led by F's partition column so the
	// run is sliced at F's splits.
	opts := &minesweeper.Options{GAO: []string{"C", "B", "A"}}
	steps := cutSteps()

	// The reference: the stream of every state the mutation sequence
	// passes through, over an unsharded catalog.
	ref := catalog.New()
	for _, rs := range pinRels() {
		if _, err := ref.Create(rs.name, rs.vars, rs.tuples); err != nil {
			t.Fatal(err)
		}
	}
	states := map[string]bool{}
	record := func() {
		q, err := ref.Query(pinExpr)
		if err != nil {
			t.Fatal(err)
		}
		res, err := minesweeper.Execute(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		states[fmt.Sprint(res.Vars, res.Tuples)] = true
	}
	record()
	for _, st := range steps {
		if err := st.apply(ref); err != nil {
			t.Fatal(err)
		}
		record()
	}

	for _, shards := range []int{1, 2, 4} {
		for _, replicas := range []int{1, 2} {
			c := NewReplicated(shards, replicas)
			for _, rs := range pinRels() {
				if _, err := c.Create(rs.name, rs.vars, rs.tuples); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.ForcePartition("F", Partition{Column: 1, Attr: "c", Mode: ModeRange, Splits: cutSplits(shards)}); err != nil {
				t.Fatal(err)
			}
			q, err := c.Query(pinExpr)
			if err != nil {
				t.Fatal(err)
			}
			// One run in-order on the calling goroutine, one spread over
			// morsel workers: both cut at F's splits.
			var ps [2]*Prepared
			for g := range ps {
				o := *opts
				o.Workers = g + 1
				if ps[g], err = c.Prepare(q, &o); err != nil {
					t.Fatal(err)
				}
				if parts := ps[g].Explain().Partitions; shards > 1 && (len(parts) != 1 || parts[0] != fmt.Sprintf("F=c:range/%d", shards)) {
					t.Fatalf("%d shards: plan is not sliced: %v", shards, parts)
				}
			}
			done := make(chan struct{})
			errc := make(chan error, 2)
			for _, p := range ps {
				go func() {
					for runs := 0; ; runs++ {
						select {
						case <-done:
							errc <- nil
							return
						default:
						}
						res, err := p.Execute()
						if err == nil && !states[fmt.Sprint(res.Vars, res.Tuples)] {
							err = fmt.Errorf("run %d streamed %d tuples of no state the catalog passed through", runs, len(res.Tuples))
						}
						if err != nil {
							errc <- err
							return
						}
					}
				}()
			}
			for pass := 0; pass < 3; pass++ {
				for _, st := range steps {
					if err := st.apply(c); err != nil {
						t.Fatal(err)
					}
				}
			}
			close(done)
			for g := 0; g < 2; g++ {
				if err := <-errc; err != nil {
					t.Fatalf("%d shards x %d replicas: %v", shards, replicas, err)
				}
			}
		}
	}
}
