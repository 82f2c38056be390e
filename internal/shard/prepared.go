package shard

import (
	"context"
	"fmt"

	minesweeper "minesweeper"
	"minesweeper/internal/catalog"
	"minesweeper/internal/engine"
)

// Prepared is the catalog's counterpart of minesweeper.PreparedQuery:
// one prepared query over the relations, run exactly as unsharded
// — so its stream is byte-identical to an unsharded run — with one
// addition. When an atom is bound to a range-partitioned relation whose
// partition column carries the leading GAO attribute, the partition's
// split points become range-morsel boundaries of every run
// (PreparedQuery.Pin): each shard's range is evaluated by morsels of
// its own over the one index, which is the work a per-shard run of
// that range would do, without a per-shard query, goroutine or merge.
type Prepared struct {
	cat       *Catalog
	q         *minesweeper.Query
	full      *minesweeper.PreparedQuery
	sliceable bool
}

// Prepare plans a query for execution over the catalog. The query must
// have been built against this catalog's relations (Catalog.Query).
// Options apply as to minesweeper.Query.Prepare; a run is sliced only
// under the order-preserving natural domain — a frequency-permuted code
// space has no contiguous image of a value range — and only for an
// IndexOnly engine, the ones range morsels split.
func (c *Catalog) Prepare(q *minesweeper.Query, opts *minesweeper.Options) (*Prepared, error) {
	full, err := q.Prepare(opts)
	if err != nil {
		return nil, err
	}
	runner, _ := engine.Lookup(full.Engine().String())
	return &Prepared{
		cat:       c,
		q:         q,
		full:      full,
		sliceable: runner.IndexOnly && (opts == nil || opts.Domain != minesweeper.DomainFreq),
	}, nil
}

// Refresh re-plans the query now if its relations mutated (runs do so
// on their own). Relation objects never change identity under the plan
// — a replica failover or reopen leaves them as they are — so the query
// stays bound to the objects it was built against; a relation dropped
// since is not followed to a re-creation under its name.
func (p *Prepared) Refresh() error { return p.full.Refresh() }

// slicing decides how a run under gao reads the relations: the
// Explain.Partitions annotation and the split points the run cuts at.
// One shard needs no annotation. Otherwise a run is sliced when an atom
// is bound to a relation of this catalog that is range-partitioned on
// the column carrying gao[0]; with several candidates the largest
// relation wins. Anything else — a hash partition, whose buckets are
// not ranges of the cut attribute, a permuted domain, a materializing
// engine — runs unsliced and says "gathered".
func (p *Prepared) slicing(v catalog.View, gao []string) (partitions []string, splits []int) {
	if p.cat.n <= 1 {
		return nil, nil
	}
	if !p.sliceable || len(gao) == 0 {
		return []string{"gathered"}, nil
	}
	atoms := p.q.Atoms()
	slice, part := -1, Partition{}
	for i, a := range atoms {
		rel, l, _ := v.Get(a.Rel.Name())
		pt, ok := l.(Partition)
		if rel != a.Rel {
			continue // not this catalog's relation (or a stale binding)
		}
		if !ok || pt.Mode != ModeRange || pt.Column >= len(a.Vars) || a.Vars[pt.Column] != gao[0] {
			continue
		}
		if slice < 0 || a.Rel.Len() > atoms[slice].Rel.Len() {
			slice, part = i, pt
		}
	}
	if slice < 0 {
		return []string{"gathered"}, nil
	}
	return []string{fmt.Sprintf("%s=%s/%d", atoms[slice].Rel.Name(), part.String(), p.cat.n)}, part.Splits
}

// OutputVars returns the emitted column names (same as unsharded).
func (p *Prepared) OutputVars() []string { return p.full.OutputVars() }

// Engine returns the resolved engine.
func (p *Prepared) Engine() minesweeper.Engine { return p.full.Engine() }

// Relations returns the relation objects the plan is bound to: the
// catalog's current ones unless a relation was dropped (or dropped and
// re-created) since the query was built.
func (p *Prepared) Relations() []*minesweeper.Relation { return p.q.Relations() }

// Explain returns the current plan annotated with the slicing decision.
func (p *Prepared) Explain() minesweeper.Explain {
	ex := p.full.Explain()
	p.cat.Pin(func(v catalog.View) { ex.Partitions, _ = p.slicing(v, ex.GAO) })
	return ex
}

// Execute runs the query to completion (convenience over the stream).
// Like minesweeper.PreparedQuery.ExecuteContext, a run that fails
// part-way returns the ordered prefix it collected alongside the error.
func (p *Prepared) Execute() (*minesweeper.Result, error) {
	res := &minesweeper.Result{}
	stats, err := p.StreamContextExplained(context.Background(), func(ex minesweeper.Explain) { res.GAO = ex.GAO }, func(t []int) bool {
		res.Tuples = append(res.Tuples, t)
		return true
	})
	res.Vars, res.Engine, res.Stats = p.OutputVars(), p.Engine(), stats
	return res, err
}

// StreamContextExplained re-plans if needed, reports the plan, and
// streams the shaped result exactly as the unsharded prepared query
// does: cancellation, emit-false early stop and error-truncated
// prefixes behave the same.
//
// A run reads one mutation-consistent cut: its plan state and slicing
// decision are pinned while no mutation can land (catalog.Catalog.Pin),
// so the stream is exactly that of one state the catalog passed
// through. A re-plan after a mutation is done before pinning, so
// writers rarely wait for one.
func (p *Prepared) StreamContextExplained(ctx context.Context, plan func(minesweeper.Explain), yield func([]int) bool) (minesweeper.Stats, error) {
	if err := p.full.Refresh(); err != nil {
		return minesweeper.Stats{}, err
	}
	var run func(context.Context, func(minesweeper.Explain), func([]int) bool) (minesweeper.Stats, error)
	var pinned []string
	var err error
	p.cat.Pin(func(v catalog.View) {
		if err = p.full.Refresh(); err != nil { // a mutation may have landed since: GAO and pin must agree
			return
		}
		var splits []int
		pinned, splits = p.slicing(v, p.full.GAO())
		run, err = p.full.Pin(splits)
	})
	if err != nil {
		return minesweeper.Stats{}, err
	}
	if partitions := pinned; plan != nil && partitions != nil {
		inner := plan
		plan = func(ex minesweeper.Explain) {
			ex.Partitions = partitions
			inner(ex)
		}
	}
	return run(ctx, plan, yield)
}
