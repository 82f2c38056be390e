package shard

import (
	"context"
	"fmt"
	"slices"
	"sync"

	minesweeper "minesweeper"
	"minesweeper/internal/certificate"
	"minesweeper/internal/core"
	"minesweeper/internal/engine"
)

// scatterBuf is the per-shard gather channel depth: deep enough to
// decouple a shard's probe loop from merge scheduling hiccups, shallow
// enough that cancellation stops wasted work quickly.
const scatterBuf = 64

// Prepared is the catalog's counterpart of minesweeper.PreparedQuery: it
// holds the full prepared query over whole relations — which serves
// planning, Explain and every run that does not scatter — plus, when
// the plan can scatter, one per-shard prepared query with the query's
// sliced atom bound to that shard's fragment instead.
// Execution fans the per-shard raw streams out, merges them with a
// loser tree into GAO-lex order, and applies the shaping (projection,
// bounds, distinct, aggregates, limit) once on the gathered side, so
// the emitted stream is byte-identical to an unsharded run.
type Prepared struct {
	cat  *Catalog
	opts minesweeper.Options

	// cur is replaced, never modified, when Refresh re-plans; a run
	// keeps the plan it pinned.
	mu  sync.Mutex
	cur *scatterPlan

	// emitHook, when set (tests only), is called in each substream's
	// goroutine with its shard index before every raw tuple.
	emitHook func(shard int)
}

// scatterPlan pins one plan: the query as bound to the whole relations'
// current objects with its full prepared query, the GAO the scatter
// decision was made for, the catalog version it saw, and — when
// scattering — the per-shard prepared queries (all forced to the same
// GAO under the order-preserving natural domain, so their raw streams
// merge by plain tuple comparison), each bound to its shard's fragment
// object. A run pins the fragments' current contents (see
// StreamContextExplained) and streams exactly that, whatever happens
// to the replicas' storage meanwhile.
type scatterPlan struct {
	q          *minesweeper.Query
	full       *minesweeper.PreparedQuery
	gao        []string
	version    uint64
	partitions []string
	shards     []*minesweeper.PreparedQuery // nil => run gathered via full
}

// Prepare plans a query for execution over the catalog. The query must
// have been built against this catalog's relations (Catalog.Query).
// Options carry through to every per-shard prepare,
// except that the GAO is pinned to the full plan's choice, the domain
// to the order-preserving natural encoding — a frequency-permuted
// domain would give each shard its own code order and break the
// merge — and Workers is split among the shards. A run that does not
// scatter uses the full Workers.
func (c *Catalog) Prepare(q *minesweeper.Query, opts *minesweeper.Options) (*Prepared, error) {
	p := &Prepared{cat: c, cur: &scatterPlan{q: q}}
	if opts != nil {
		p.opts = *opts
	}
	if err := p.Refresh(); err != nil {
		return nil, err
	}
	return p, nil
}

// Refresh brings the plan up to date: the full query re-plans if its
// relations mutated, and the scatter plan is rebuilt when the GAO or
// the catalog's partition version moved. Relation objects never change
// identity under the plan — a replica failover or reopen leaves them
// as they are — so the query stays bound to the objects it was built
// against; a relation dropped since is not followed to a re-creation
// under its name.
func (p *Prepared) Refresh() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	full := p.cur.full
	if full == nil {
		var err error
		if full, err = p.cur.q.Prepare(&p.opts); err != nil {
			return err
		}
	}
	if err := full.Refresh(); err != nil {
		return err
	}
	gao := full.GAO()
	p.cat.mu.Lock()
	version := p.cat.version
	p.cat.mu.Unlock()
	if full == p.cur.full && p.cur.version == version && slices.Equal(p.cur.gao, gao) {
		return nil
	}
	cur, err := p.buildPlan(p.cur.q, full, gao, version)
	if err != nil {
		return err
	}
	p.cur = cur
	return nil
}

// buildPlan decides whether the query scatters and builds the per-shard
// prepared queries when it does. Scatter requires a sliceable atom: one
// bound to a partitioned whole relation whose partition column carries
// the leading GAO attribute — then each shard's substream enumerates a
// restriction of the outermost domain and per-assignment work is done
// once across the shard set. With several candidates the largest
// relation wins (slicing it buys the most). Without one — or under a
// frequency-permuted domain, or with one shard — execution runs the
// full plan over the whole relations. A shard with no healthy replica
// still scatters: reads come from its in-memory fragment.
func (p *Prepared) buildPlan(q *minesweeper.Query, full *minesweeper.PreparedQuery, gao []string, version uint64) (*scatterPlan, error) {
	plan := &scatterPlan{q: q, full: full, gao: gao, version: version}
	if p.cat.n <= 1 {
		return plan, nil // a gather of one fragment is that fragment: the full plan runs it
	}
	plan.partitions = []string{"gathered"}
	if p.opts.Domain == minesweeper.DomainFreq || len(gao) == 0 {
		return plan, nil
	}
	atoms := q.Atoms()
	p.cat.mu.Lock()
	slice, part := -1, Partition{}
	for i, a := range atoms {
		rel, ok := p.cat.whole().Get(a.Rel.Name())
		if !ok || minesweeper.Fragment(rel) != a.Rel {
			continue // not this catalog's relation (or a stale binding)
		}
		pt, ok := p.cat.parts[a.Rel.Name()]
		if !ok || pt.Column >= len(a.Vars) || a.Vars[pt.Column] != gao[0] {
			continue
		}
		if slice < 0 || a.Rel.Len() > atoms[slice].Rel.Len() {
			slice, part = i, pt
		}
	}
	if slice < 0 {
		p.cat.mu.Unlock()
		return plan, nil
	}
	name := atoms[slice].Rel.Name()
	frags := make([]*minesweeper.Relation, p.cat.n)
	for s, cc := range p.cat.shards {
		frag, have := cc.Get(name)
		if !have {
			p.cat.mu.Unlock()
			return plan, nil // fragment missing (partial create): run gathered
		}
		frags[s] = frag
	}
	p.cat.mu.Unlock()
	shards := make([]*minesweeper.PreparedQuery, p.cat.n)
	for s := range shards {
		pq, err := p.prepareSubstream(q, gao, slice, frags[s])
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		shards[s] = pq
	}
	plan.shards = shards
	plan.partitions = []string{fmt.Sprintf("%s=%s/%d", name, part.String(), p.cat.n)}
	return plan, nil
}

// prepareSubstream builds one shard's prepared query: the sliced atom
// bound to frag, the GAO pinned, the domain forced natural.
func (p *Prepared) prepareSubstream(q *minesweeper.Query, gao []string, slice int, frag minesweeper.Fragment) (*minesweeper.PreparedQuery, error) {
	qs := q.CloneWithRelations(func(i int, f minesweeper.Fragment) minesweeper.Fragment {
		if i == slice {
			return frag
		}
		return f
	})
	o := p.opts
	o.GAO = gao
	o.Domain = minesweeper.DomainNatural
	// The N substreams already run side by side: each takes ⌈W/N⌉
	// morsel workers, so a scattered run starts at most W + N engine
	// goroutines rather than N·W.
	o.Workers = (o.Workers + p.cat.n - 1) / p.cat.n
	return qs.Prepare(&o)
}

// pinned returns the current plan.
func (p *Prepared) pinned() *scatterPlan {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cur
}

// OutputVars returns the emitted column names (same as unsharded).
func (p *Prepared) OutputVars() []string { return p.pinned().full.OutputVars() }

// Engine returns the resolved engine.
func (p *Prepared) Engine() minesweeper.Engine { return p.pinned().full.Engine() }

// Relations returns the relation objects the plan is bound to: the
// catalog's current ones unless a relation was dropped (or dropped and
// re-created) since the query was built.
func (p *Prepared) Relations() []minesweeper.Fragment { return p.pinned().q.Relations() }

// Explain returns the full plan annotated with the scatter decision.
func (p *Prepared) Explain() minesweeper.Explain {
	cur := p.pinned()
	ex := cur.full.Explain()
	ex.Partitions = append([]string(nil), cur.partitions...)
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

// pinnedRun is one pinned run of a prepared query (PreparedQuery.Pin).
type pinnedRun = func(ctx context.Context, plan func(minesweeper.Explain), yield func([]int) bool) (minesweeper.Stats, error)

// StreamContextExplained re-plans if needed, reports the plan, and
// streams the shaped result: scattered across the shard set when the
// plan allows, through the full plan over whole relations otherwise.
// Cancellation, emit-false early stop and error-truncated prefixes
// behave exactly as in the unsharded stream.
//
// A run reads one mutation-consistent cut: every prepared query it
// executes — the full one, or one per shard — is pinned under a single
// acquisition of the catalog mutex, which every mutation holds across
// all the fragments and the gathered copy it touches. So the stream is
// exactly that of one state the catalog passed through, never one
// shard's post-mutation fragment beside another's pre-mutation one.
func (p *Prepared) StreamContextExplained(ctx context.Context, plan func(minesweeper.Explain), yield func([]int) bool) (minesweeper.Stats, error) {
	if err := p.Refresh(); err != nil {
		return minesweeper.Stats{}, err
	}
	cur := p.pinned()
	raw, pqs := true, cur.shards
	if pqs == nil {
		raw, pqs = false, []*minesweeper.PreparedQuery{cur.full}
	}
	runs := make([]pinnedRun, len(pqs))
	p.cat.mu.Lock()
	for s, pq := range pqs {
		var err error
		if runs[s], err = pq.Pin(raw); err != nil {
			p.cat.mu.Unlock()
			return minesweeper.Stats{}, err
		}
	}
	p.cat.mu.Unlock()
	if cur.shards == nil {
		wrapped := plan
		if plan != nil && len(cur.partitions) > 0 {
			wrapped = func(ex minesweeper.Explain) {
				ex.Partitions = append([]string(nil), cur.partitions...)
				plan(ex)
			}
		}
		return runs[0](ctx, wrapped, yield)
	}
	return p.gather(ctx, cur, runs, plan, yield)
}

// sub is one shard's gather-side state: the merge channel, the
// substream's stats, and its terminal error.
type sub struct {
	ch    chan []int
	stats minesweeper.Stats
	err   error
}

// gather is the scatter-gather executor: every shard's raw substream
// (already GAO-lex-ordered and decoded) feeds a bounded channel; a
// loser tree merges the fronts into one globally ordered raw stream,
// which flows through the query's shape exactly once. Because every
// stored copy of a sliced-atom row lives in exactly one fragment, each
// raw assignment surfaces exactly once and the merged stream is
// byte-identical to the unsharded raw stream.
//
// A substream reads only the fragment state its run pinned, so a
// replica whose storage dies mid-run changes nothing it reads: the run
// finishes on that state, and detecting the death is left to the write
// path and the reopen loop. A substream that fails — an engine
// panic, say — ends the run with an error after a correct merged
// prefix; nothing is retried, as with a panicking engine.Parallel
// morsel.
func (p *Prepared) gather(ctx context.Context, cur *scatterPlan, runs []pinnedRun, plan func(minesweeper.Explain), yield func([]int) bool) (minesweeper.Stats, error) {
	_, sh, err := cur.q.ShapePlan(cur.gao, &p.opts)
	if err != nil {
		return minesweeper.Stats{}, err
	}
	ex := cur.full.Explain()
	ex.Partitions = append([]string(nil), cur.partitions...)
	if plan != nil {
		plan(ex)
	}

	synth := func(rctx context.Context, _ *core.Problem, stats *certificate.Stats, emit func([]int) bool) error {
		cctx, cancel := context.WithCancel(rctx)
		subs := make([]*sub, len(runs))
		var wg sync.WaitGroup
		for s := range subs {
			sb := &sub{ch: make(chan []int, scatterBuf)}
			subs[s] = sb
			wg.Add(1)
			go func(s int, sb *sub) {
				defer wg.Done()
				defer close(sb.ch)
				sb.stats, sb.err = p.runSubstream(cctx, s, runs[s], sb.ch)
			}(s, sb)
		}
		// On every exit: stop the producers, wait them out, and fold
		// their stats into the run's — including early stops, so a
		// limited run still reports the probe work it caused.
		defer func() {
			cancel()
			wg.Wait()
			for _, sb := range subs {
				stats.Add(&sb.stats)
			}
		}()

		var firstErr error
		recv := func(s int) []int {
			t, ok := <-subs[s].ch
			if !ok {
				if subs[s].err != nil && firstErr == nil {
					firstErr = subs[s].err
				}
				return nil
			}
			return t
		}
		heads := make([][]int, len(subs))
		for s := range heads {
			heads[s] = recv(s)
		}
		lt := newLoserTree(heads)
		for firstErr == nil {
			// Check before every emit, not just when a producer fails:
			// with small fragments the substreams can already sit fully
			// buffered when the caller cancels, and draining them would
			// break the anytime contract the unsharded engines keep
			// (no tuple is yielded after the context is done).
			if err := rctx.Err(); err != nil {
				return err
			}
			t := lt.pop(recv)
			if t == nil {
				break
			}
			if !emit(t) {
				return nil
			}
		}
		// A failed shard truncates the stream at the merge frontier:
		// everything emitted so far is a correct ordered prefix.
		return firstErr
	}

	var stats minesweeper.Stats
	err = engine.RunShaped(ctx, synth, nil, sh, &stats, yield)
	stats.PlanWidth, stats.PlanCost = ex.Width, ex.EstCost
	return stats, err
}

// runSubstream runs one shard's raw substream to the end, pushing
// tuples into the gather channel. It is the substream's panic boundary:
// a panicking engine is recovered here, counted per shard, and surfaced
// as the substream's error.
func (p *Prepared) runSubstream(cctx context.Context, s int, raw pinnedRun, ch chan<- []int) (st minesweeper.Stats, err error) {
	ctr := &p.cat.counters[s]
	ctr.runs.Add(1)
	ctr.inflight.Add(1)
	defer ctr.inflight.Add(-1)
	defer func() {
		if r := recover(); r != nil {
			ctr.panics.Add(1)
			err = fmt.Errorf("shard %d: substream panic: %v", s, r)
		}
	}()
	return raw(cctx, nil, func(t []int) bool {
		if p.emitHook != nil {
			p.emitHook(s)
		}
		ctr.emitted.Add(1)
		select {
		case ch <- t:
			return true
		default:
		}
		// Full channel: the merge is draining a hotter shard. Park
		// visibly (the queued counter) until there is room or the run
		// is over.
		ctr.queued.Add(1)
		defer ctr.queued.Add(-1)
		select {
		case ch <- t:
			return true
		case <-cctx.Done():
			return false
		}
	})
}

// loserTree merges k ordered tuple streams. Internal nodes 1..k-1 hold
// the loser of the match played there; tree[0] holds the overall
// winner; leaf s maps to node s+k. Each pop replays exactly the
// winner's root path: ceil(log2 k) comparisons per emitted tuple.
type loserTree struct {
	k    int
	tree []int
	head [][]int // current front per source; nil = exhausted
}

func newLoserTree(heads [][]int) *loserTree {
	lt := &loserTree{k: len(heads), tree: make([]int, len(heads)), head: heads}
	if lt.k > 0 {
		lt.tree[0] = lt.build(1)
	}
	return lt
}

// build computes the winner of the subtree rooted at node, parking each
// match's loser at its node.
func (lt *loserTree) build(node int) int {
	if node >= lt.k {
		return node - lt.k
	}
	a, b := lt.build(2*node), lt.build(2*node+1)
	if lt.beats(a, b) {
		lt.tree[node] = b
		return a
	}
	lt.tree[node] = a
	return b
}

// beats reports whether source a's front comes before source b's:
// exhausted streams lose to everything, ties break to the lower shard
// index so the merge is deterministic.
func (lt *loserTree) beats(a, b int) bool {
	ha, hb := lt.head[a], lt.head[b]
	if ha == nil {
		return false
	}
	if hb == nil {
		return true
	}
	for i := range ha {
		if ha[i] != hb[i] {
			return ha[i] < hb[i]
		}
	}
	return a < b
}

// pop removes and returns the smallest front, refilling its source and
// replaying its path. Returns nil when every source is exhausted.
func (lt *loserTree) pop(refill func(s int) []int) []int {
	if lt.k == 0 {
		return nil
	}
	w := lt.tree[0]
	t := lt.head[w]
	if t == nil {
		return nil
	}
	lt.head[w] = refill(w)
	s := w
	for n := (w + lt.k) / 2; n > 0; n /= 2 {
		if lt.beats(lt.tree[n], s) {
			lt.tree[n], s = s, lt.tree[n]
		}
	}
	lt.tree[0] = s
	return t
}
