package engine

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"minesweeper/internal/certificate"
	"minesweeper/internal/core"
)

// morselsPerWorker is k of the morsel cut (about k·W ranges for W
// workers): several morsels per worker keep the workers busy when ranges
// differ in cost and bring the first tuple after one morsel instead of
// 1/W of the run, at the price of what each morsel must re-learn.
const morselsPerWorker = 4

// morsel is one contiguous range [lo, hi] of the cut attribute's values
// and what its run left for the consumer.
type morsel struct {
	lo, hi int
	out    [][]int
	stats  certificate.Stats
	err    error
	done   chan struct{}
}

// Parallel spreads e's run over workers goroutines by range morsels, the
// morsel-driven design of Leis et al. (SIGMOD 2014) over the cached
// indexes: each morsel runs on reltree.SliceTop views of the same trees,
// so nothing is copied or re-sorted. Morsels start in order, at most
// workers of them ahead of the consumer, which concatenates their
// buffered outputs in order: morsels are disjoint and ordered, so the
// stream is the sequential one, and its first tuple arrives after one
// morsel.
//
// The package contract holds: ctx is checked before every emit, emit
// returning false cancels the outstanding morsels, and a panicking
// morsel becomes an error after the tuples of the morsels before it.
// Morsel stats are summed into stats, with Outputs corrected to the
// tuples emitted. Only an IndexOnly engine is spread — one that rebuilds
// Ω(N) state per run would rebuild it per morsel — so for any other, or
// for workers ≤ 1, Parallel returns e.Run itself.
func Parallel(e Engine, workers int) RunFunc {
	if workers <= 1 || !e.IndexOnly {
		return e.Run
	}
	return func(ctx context.Context, p *core.Problem, stats *certificate.Stats, emit func([]int) bool) error {
		pos, ms := cut(p, workers)
		if len(ms) < 2 {
			return e.Run(ctx, p, stats, emit)
		}
		wctx, cancel := context.WithCancel(ctx)
		work := make(chan *morsel, len(ms))
		var wg sync.WaitGroup
		for i := range min(workers, len(ms)) {
			work <- &ms[i]
			wg.Add(1)
			go func() {
				defer wg.Done()
				for m := range work {
					m.run(wctx, e.Run, p, pos)
				}
			}()
		}

		emitted, err := int64(0), error(nil)
	drain:
		for i := range ms {
			m := &ms[i]
			<-m.done
			for _, t := range m.out {
				if err = ctx.Err(); err != nil {
					break drain
				}
				emitted++
				if !emit(t) {
					break drain
				}
			}
			if err = m.err; err != nil {
				break
			}
			// The morsel dispatched next reuses the drained buffer, cleared
			// so that it no longer pins tuples the receiver now owns.
			clear(m.out)
			if next := i + workers; next < len(ms) {
				ms[next].out = m.out[:0]
				work <- &ms[next]
			}
		}
		cancel()
		close(work)
		wg.Wait()
		if stats != nil {
			for i := range ms {
				emitted -= ms[i].stats.Outputs
				stats.Add(&ms[i].stats)
			}
			stats.Outputs += emitted
		}
		return err
	}
}

// run evaluates the morsel's slice of p — SliceTop views of the atoms
// leading with GAO position pos, the others shared whole — buffering its
// output; a panic is recovered into the morsel's error.
func (m *morsel) run(ctx context.Context, run RunFunc, p *core.Problem, pos int) {
	defer close(m.done)
	if m.err = ctx.Err(); m.err != nil {
		return // queued behind a stop: no work, and a cancelled run still reports why
	}
	defer func() {
		if r := recover(); r != nil {
			m.err = fmt.Errorf("engine: morsel [%d, %d] panicked: %v", m.lo, m.hi, r)
		}
	}()
	sub := p.Snapshot()
	for i, a := range p.Atoms {
		if len(a.Positions) > 0 && a.Positions[0] == pos {
			sub.Atoms[i].Tree = a.Tree.SliceTop(m.lo, m.hi)
		}
	}
	// A context of its own: engines check ctx.Err() per probe or per
	// search level, and cancelCtx.Err takes the context's mutex, which
	// workers sharing one context would contend on.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	m.err = run(ctx, sub, &m.stats, func(t []int) bool {
		m.out = append(m.out, t)
		return true
	})
}

// cut picks the first GAO position whose bound is not a single point —
// leading point bounds (pushed-down constants) leave one value that
// every output shares, so ranges of the next position still concatenate
// in GAO-lex order — and splits the values the smallest atom leading
// with it holds there (every output's value is one of them), within the
// position's bound, into about morselsPerWorker·workers contiguous
// morsels. Fewer than two morsels mean the problem runs whole.
func cut(p *core.Problem, workers int) (pos int, ms []morsel) {
	if p.Bounds != nil {
		for pos < len(p.GAO)-1 && p.Bounds[pos].Lo == p.Bounds[pos].Hi {
			pos++
		}
	}
	var vals []int
	for _, a := range p.Atoms {
		lo, hi := a.Tree.Top()
		if len(a.Positions) > 0 && a.Positions[0] == pos && (vals == nil || hi-lo < len(vals)) {
			vals = a.Tree.Level(0)[lo:hi]
		}
	}
	if p.Bounds != nil {
		b := p.Bounds[pos]
		lo, _ := slices.BinarySearch(vals, b.Lo)
		hi := sort.Search(len(vals), func(i int) bool { return vals[i] > b.Hi })
		vals = vals[lo:max(lo, hi)]
	}
	n := min(morselsPerWorker*workers, len(vals))
	ms = make([]morsel, n)
	for i := range ms {
		ms[i] = morsel{lo: vals[i*len(vals)/n], hi: vals[(i+1)*len(vals)/n-1], done: make(chan struct{})}
	}
	return pos, ms
}
