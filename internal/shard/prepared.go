package shard

import (
	"context"
	"errors"
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

// healthCheckEvery is how many substream tuples pass between replica
// health probes. Raw tuples come out of in-memory fragments, so a dead
// backend never fails the read itself — the substream has to ask.
const healthCheckEvery = 32

// Prepared is the catalog's counterpart of minesweeper.PreparedQuery: it
// holds the full prepared query over whole relations — which serves
// planning, Explain and every run that does not scatter — plus, when
// the plan can scatter, one per-shard prepared query with the query's
// sliced atom rebound to that shard's serving-replica fragment.
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
}

// scatterPlan pins one plan: the query as bound to the whole relations'
// current objects with its full prepared query, the GAO the scatter
// decision was made for, the catalog version it saw, and — when
// scattering — the per-shard
// prepared queries (all forced to the same GAO under the
// order-preserving natural domain, so their raw streams merge by plain
// tuple comparison), plus everything a mid-run substream retry needs
// to rebuild one substream on a sibling replica: the sliced atom, the
// plan-time fragment epochs, and which replica each shard's substream
// was bound to.
type scatterPlan struct {
	q          *minesweeper.Query
	full       *minesweeper.PreparedQuery
	gao        []string
	version    uint64
	partitions []string
	name       string                       // sliced relation
	slice      int                          // sliced atom index in q.Atoms()
	epochs     []uint64                     // plan-time fragment epoch per shard
	replica    []int                        // serving replica per shard
	shards     []*minesweeper.PreparedQuery // nil => run gathered via full
}

// substreamError is a recoverable per-substream failure: the scatter
// manager retries the substream on a sibling replica, resuming from
// the last delivered key. markDown additionally records the replica as
// failed (storage death); a recovered panic retries without marking —
// the replica's data is intact, the fault may be transient.
type substreamError struct {
	shard    int
	replica  int
	cause    error
	markDown bool
}

func (e *substreamError) Error() string {
	return fmt.Sprintf("shard %d replica %d: %v", e.shard, e.replica, e.cause)
}

func (e *substreamError) Unwrap() error { return e.cause }

// Prepare plans a query for execution over the catalog. The query must
// have been built against this catalog's relations (Catalog.Query); one
// parsed before a leadership move is bound to the relations' current
// objects first. Options carry through to every per-shard prepare,
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

// Refresh brings the plan up to date. When the catalog's version moved
// (partitions, replica set, leadership) the query is first rebound to
// the current whole relations — a leadership move at one shard changes
// which *Relation a name is, and only atoms bound to a superseded
// object of the same relation follow it — and the full query prepared
// again if anything was rebound. Then the full query re-plans if its
// relations mutated, and the scatter plan is rebuilt when the GAO or
// the version moved (markDownLocked bumps the same version, so plans
// re-bind off dead replicas too).
func (p *Prepared) Refresh() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	q, version := p.cat.rebound(p.cur.q, p.cur.version)
	full := p.cur.full
	if q != p.cur.q || full == nil {
		var err error
		if full, err = q.Prepare(&p.opts); err != nil {
			return err
		}
	}
	if err := full.Refresh(); err != nil {
		return err
	}
	gao := full.GAO()
	if full == p.cur.full && p.cur.version == version && slices.Equal(p.cur.gao, gao) {
		return nil
	}
	cur, err := p.buildPlan(q, full, gao, version)
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
// frequency-permuted domain, with one shard, or with a shard that has
// no healthy replica — execution runs the full plan over the whole
// relations.
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
		rel, ok := p.cat.wholeLocked().Get(a.Rel.Name())
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
	epochs := make([]uint64, p.cat.n)
	reps := make([]int, p.cat.n)
	ok := true
	for s := 0; s < p.cat.n; s++ {
		rep := -1
		for jj := 0; jj < p.cat.r; jj++ {
			j := (p.cat.primary[s] + jj) % p.cat.r
			if p.cat.replicaErrLocked(s, j) == nil {
				rep = j
				break
			}
		}
		if rep < 0 {
			ok = false // fully dead shard: the gathered copy still serves reads
			break
		}
		frag, have := p.cat.replicas[s][rep].Get(name)
		if !have {
			ok = false // fragment missing (partial create): run gathered
			break
		}
		frags[s], epochs[s], reps[s] = frag, frag.Epoch(), rep
	}
	p.cat.mu.Unlock()
	if !ok {
		return plan, nil
	}
	shards := make([]*minesweeper.PreparedQuery, p.cat.n)
	for s := range shards {
		pq, err := p.prepareSubstream(q, gao, slice, frags[s], nil)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		shards[s] = pq
	}
	plan.name, plan.slice = name, slice
	plan.shards, plan.epochs, plan.replica = shards, epochs, reps
	plan.partitions = []string{fmt.Sprintf("%s=%s/%d", name, part.String(), p.cat.n)}
	return plan, nil
}

// prepareSubstream builds one shard's prepared query: the sliced atom
// rebound to frag, the GAO pinned, the domain forced natural. A
// non-nil resume row (a full extended-GAO raw tuple, the last one the
// failed substream delivered) additionally pushes the resume key down
// as an inclusive lower bound on the leading GAO variable — the PR 4
// bounds machinery — so the replacement substream seeks straight to
// the failure frontier instead of rescanning the fragment.
func (p *Prepared) prepareSubstream(q *minesweeper.Query, gao []string, slice int, frag minesweeper.Fragment, resume []int) (*minesweeper.PreparedQuery, error) {
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
	if resume != nil && len(gao) > 0 {
		// nil Where means "the query's own parsed where clause": make
		// that explicit before appending, or the resume bound would
		// silently drop the query's textual filters.
		eff := o.Where
		if eff == nil {
			eff = q.Where()
		}
		where := make([]minesweeper.Filter, 0, len(eff)+1)
		where = append(where, eff...)
		// The raw row layout is hidden constants first, then the GAO
		// variables: gao[0]'s value sits at len(resume)-len(gao).
		where = append(where, minesweeper.Filter{
			Var: gao[0], Op: ">=", Value: resume[len(resume)-len(gao)],
		})
		o.Where = where
	}
	return qs.Prepare(&o)
}

// retrySubstream picks an untried healthy sibling replica whose
// fragment still sits at the plan's pinned epoch (a replica that moved
// past it — a concurrent mutation — cannot resume byte-identically)
// and builds the resumed substream against it.
func (p *Prepared) retrySubstream(cur *scatterPlan, s int, tried map[int]bool, resume []int) (int, *minesweeper.PreparedQuery, error) {
	type cand struct {
		rep  int
		frag *minesweeper.Relation
	}
	p.cat.mu.Lock()
	var cands []cand
	for j := 0; j < p.cat.r; j++ {
		if tried[j] || p.cat.replicaErrLocked(s, j) != nil {
			continue
		}
		frag, ok := p.cat.replicas[s][j].Get(cur.name)
		if !ok || frag.Epoch() != cur.epochs[s] {
			continue
		}
		cands = append(cands, cand{j, frag})
	}
	p.cat.mu.Unlock()
	for _, cd := range cands {
		pq, err := p.prepareSubstream(cur.q, cur.gao, cur.slice, cd.frag, resume)
		if err == nil {
			tried[cd.rep] = true
			return cd.rep, pq, nil
		}
	}
	return -1, nil, fmt.Errorf("shard %d: no replica can resume the substream", s)
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

// Relations returns the relation objects the plan is bound to. After a
// Refresh they are the catalog's current ones unless a relation was
// dropped (or dropped and re-created) since the query was built.
func (p *Prepared) Relations() []minesweeper.Fragment { return p.pinned().q.Relations() }

// Explain returns the full plan annotated with the scatter decision.
func (p *Prepared) Explain() minesweeper.Explain {
	cur := p.pinned()
	ex := cur.full.Explain()
	ex.Partitions = append([]string(nil), cur.partitions...)
	return ex
}

// Execute runs the query to completion (convenience over the stream).
func (p *Prepared) Execute() (*minesweeper.Result, error) {
	var tuples [][]int
	var ex minesweeper.Explain
	stats, err := p.StreamContextExplained(context.Background(), func(e minesweeper.Explain) { ex = e }, func(t []int) bool {
		tuples = append(tuples, t)
		return true
	})
	if err != nil {
		return nil, err
	}
	return &minesweeper.Result{Vars: p.OutputVars(), Tuples: tuples, GAO: ex.GAO, Stats: stats}, nil
}

// StreamContextExplained re-plans if needed, reports the plan, and
// streams the shaped result: scattered across the shard set when the
// plan allows, through the full plan over whole relations otherwise.
// Cancellation, emit-false early stop and error-truncated prefixes
// behave exactly as in the unsharded stream.
func (p *Prepared) StreamContextExplained(ctx context.Context, plan func(minesweeper.Explain), yield func([]int) bool) (minesweeper.Stats, error) {
	if err := p.Refresh(); err != nil {
		return minesweeper.Stats{}, err
	}
	cur := p.pinned()
	if cur.shards == nil {
		wrapped := plan
		if plan != nil && len(cur.partitions) > 0 {
			wrapped = func(ex minesweeper.Explain) {
				ex.Partitions = append([]string(nil), cur.partitions...)
				plan(ex)
			}
		}
		return cur.full.StreamContextExplained(ctx, wrapped, yield)
	}
	return p.gather(ctx, cur, plan, yield)
}

// sub is one shard's gather-side state: the merge channel, the folded
// stats of every attempt, and the terminal error when retries ran out.
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
// Each substream is its own fault domain: a replica that dies or an
// engine that panics mid-run fails only that substream, and its
// manager goroutine retries on a sibling replica with the substream's
// last delivered key pushed down as a resume bound — everything at or
// before the key is skipped, so the merged stream continues exactly
// where it stopped and stays byte-identical through the failure. Only
// when no replica can resume does the run truncate with an error.
func (p *Prepared) gather(ctx context.Context, cur *scatterPlan, plan func(minesweeper.Explain), yield func([]int) bool) (minesweeper.Stats, error) {
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
		subs := make([]*sub, len(cur.shards))
		var wg sync.WaitGroup
		for s := range subs {
			sb := &sub{ch: make(chan []int, scatterBuf)}
			subs[s] = sb
			wg.Add(1)
			go func(s int, sb *sub) {
				defer wg.Done()
				defer close(sb.ch)
				ctr := &p.cat.counters[s]
				ctr.runs.Add(1)
				ctr.inflight.Add(1)
				defer ctr.inflight.Add(-1)
				pq := cur.shards[s]
				rep := cur.replica[s]
				tried := map[int]bool{rep: true}
				var last []int
				var resume []int
				for {
					st, err := p.runSubstream(cctx, s, rep, pq, resume, sb, &last)
					sb.stats.Add(&st)
					if err == nil {
						return
					}
					var serr *substreamError
					if !errors.As(err, &serr) || cctx.Err() != nil {
						sb.err = err
						return
					}
					if serr.markDown {
						p.cat.markReplicaDown(s, rep, serr.cause)
					}
					if last != nil {
						resume = append(resume[:0], last...)
					}
					nrep, npq, rerr := p.retrySubstream(cur, s, tried, resume)
					if rerr != nil {
						sb.err = serr.cause
						return
					}
					rep, pq = nrep, npq
					ctr.retries.Add(1)
				}
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

// runSubstream runs one attempt of one shard's raw substream against
// one replica, pushing tuples into the gather channel. It is the
// per-substream fault boundary:
//
//   - a panicking engine is recovered here and surfaced as a retryable
//     substream error (counted per shard);
//   - every healthCheckEvery tuples the replica's health is probed —
//     fragments are in-memory, so a poisoned store never fails the
//     read itself, the substream has to detect it and hand over;
//   - the test-only killHook can fail the attempt at an exact tuple;
//   - on a resumed attempt, rows lexicographically at or before the
//     resume key are skipped (the coarse >= bound on gao[0] readmits
//     rows sharing the boundary value that were already delivered).
//
// last tracks the newest tuple actually handed to the gather channel
// across attempts — the resume frontier.
func (p *Prepared) runSubstream(cctx context.Context, s, rep int, pq *minesweeper.PreparedQuery, resume []int, sb *sub, last *[]int) (st minesweeper.Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			p.cat.counters[s].panics.Add(1)
			err = &substreamError{shard: s, replica: rep, cause: fmt.Errorf("substream panic: %v", r)}
		}
	}()
	ctr := &p.cat.counters[s]
	n := 0
	var ferr error
	st, serr := pq.StreamRawContext(cctx, nil, func(t []int) bool {
		if kill := p.cat.killHook; kill != nil {
			if kerr := kill(s, rep, t); kerr != nil {
				ferr = &substreamError{shard: s, replica: rep, cause: kerr, markDown: true}
				return false
			}
		}
		if resume != nil && !lexAfter(t, resume) {
			return true
		}
		if n%healthCheckEvery == 0 {
			if h := p.cat.replicaHealth(s, rep); h != nil {
				ferr = &substreamError{shard: s, replica: rep,
					cause: fmt.Errorf("replica unhealthy: %w", h), markDown: true}
				return false
			}
		}
		n++
		ctr.emitted.Add(1)
		select {
		case sb.ch <- t:
			*last = t
			return true
		default:
		}
		// Full channel: the merge is draining a hotter shard. Park
		// visibly (the queued counter) until there is room or the run
		// is over.
		ctr.queued.Add(1)
		defer ctr.queued.Add(-1)
		select {
		case sb.ch <- t:
			*last = t
			return true
		case <-cctx.Done():
			return false
		}
	})
	if ferr != nil {
		return st, ferr
	}
	if serr != nil {
		return st, &substreamError{shard: s, replica: rep, cause: serr, markDown: true}
	}
	return st, nil
}

// lexAfter reports t > last lexicographically. Raw rows of one
// substream share an arity and are strictly increasing, so this is the
// exact already-delivered test for resumed attempts.
func lexAfter(t, last []int) bool {
	for i := range t {
		if i >= len(last) {
			return true
		}
		if t[i] != last[i] {
			return t[i] > last[i]
		}
	}
	return false
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
