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
// A problem's Splits are morsel boundaries too. This is how a range
// partition runs: every partition range is evaluated by morsels of its
// own, at any worker count. At workers ≤ 1 those morsels run in order
// on the calling goroutine, each emitting straight through — no buffer,
// no goroutine — so a split run keeps e.Run's own contract, panics
// included.
//
// The package contract holds: ctx is checked before every emit, emit
// returning false cancels the outstanding morsels, and a panicking
// morsel becomes an error after the tuples of the morsels before it.
// Morsel stats are summed into stats, with Outputs corrected to the
// tuples emitted. Only an IndexOnly engine is spread — one that rebuilds
// Ω(N) state per run would rebuild it per morsel — so for any other
// Parallel returns e.Run itself, and with workers ≤ 1 and no splits a
// run is e.Run's.
func Parallel(e Engine, workers int) RunFunc {
	if !e.IndexOnly {
		return e.Run
	}
	return func(ctx context.Context, p *core.Problem, stats *certificate.Stats, emit func([]int) bool) error {
		if workers <= 1 && len(p.Splits) == 0 {
			return e.Run(ctx, p, stats, emit)
		}
		pos, ms := cut(p, workers)
		if len(ms) < 2 {
			return e.Run(ctx, p, stats, emit)
		}
		if workers <= 1 {
			return inOrder(ctx, e.Run, p, pos, ms, stats, emit)
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

// inOrder runs the morsels one after another on the calling goroutine,
// each straight into emit and stats.
func inOrder(ctx context.Context, run RunFunc, p *core.Problem, pos int, ms []morsel, stats *certificate.Stats, emit func([]int) bool) error {
	stopped := false
	pass := func(t []int) bool {
		stopped = !emit(t)
		return !stopped
	}
	for i := range ms {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := run(ctx, ms[i].slice(p, pos), stats, pass); err != nil || stopped {
			return err
		}
	}
	return nil
}

// slice returns a snapshot of p whose atoms leading with GAO position
// pos are SliceTop views over the morsel's range; the others are shared
// whole.
func (m *morsel) slice(p *core.Problem, pos int) *core.Problem {
	sub := p.Snapshot()
	for i, a := range p.Atoms {
		if len(a.Positions) > 0 && a.Positions[0] == pos {
			sub.Atoms[i].Tree = a.Tree.SliceTop(m.lo, m.hi)
		}
	}
	return sub
}

// run evaluates the morsel's slice of p, buffering its output; a panic
// is recovered into the morsel's error.
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
	sub := m.slice(p, pos)
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
// position's bound, into contiguous morsels: about
// morselsPerWorker·workers of equal length when workers > 1, each cut
// again at every split of the problem's that falls on the position.
// Fewer than two morsels mean the problem runs whole.
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
	n := 1
	if workers > 1 {
		n = morselsPerWorker * workers
	}
	n = min(n, len(vals))
	starts := make([]int, n, n+len(p.Splits))
	for i := range starts {
		starts[i] = i * len(vals) / n
	}
	for _, s := range p.Splits {
		if i, _ := slices.BinarySearch(vals, s); pos == p.SplitPos && i > 0 && i < len(vals) {
			starts = append(starts, i)
		}
	}
	slices.Sort(starts)
	starts = slices.Compact(starts)
	ms = make([]morsel, len(starts))
	for i, s := range starts {
		end := len(vals)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		ms[i] = morsel{lo: vals[s], hi: vals[end-1], done: make(chan struct{})}
	}
	return pos, ms
}
