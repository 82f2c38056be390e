package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"minesweeper/internal/certificate"
	"minesweeper/internal/reltree"
)

// arange is an inclusive range of first-attribute values owned by one
// worker.
type arange struct{ lo, hi int }

// splitRanges partitions the sorted distinct values into at most workers
// contiguous, equally sized ranges.
func splitRanges(distinct []int, workers int) []arange {
	if workers > len(distinct) {
		workers = len(distinct)
	}
	per := (len(distinct) + workers - 1) / workers
	ranges := make([]arange, 0, workers)
	for i := 0; i < len(distinct); i += per {
		j := i + per
		if j > len(distinct) {
			j = len(distinct)
		}
		ranges = append(ranges, arange{distinct[i], distinct[j-1]})
	}
	return ranges
}

// distinctSorted collects the distinct values of the given lists,
// sorted. Inputs are the top-level value lists of a few atom trees, so
// the simple hash-and-sort beats a k-way merge in clarity at no
// measurable cost (it runs once per parallel execution).
func distinctSorted(lists ...[]int) []int {
	seen := map[int]bool{}
	for _, l := range lists {
		for _, v := range l {
			seen[v] = true
		}
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// partsPool recycles the per-worker tuple buffers of the parallel
// drivers: the [][]int headers are reused across runs (the tuples they
// pointed at are handed to emit and owned by the receiver), so a served
// workload's steady state does not re-grow a fresh buffer per worker
// per run.
var partsPool = sync.Pool{New: func() any { return new([][]int) }}

func putParts(buf *[][]int) {
	b := *buf
	for i := range b {
		b[i] = nil // don't pin emitted tuples
	}
	*buf = b[:0]
	partsPool.Put(buf)
}

// MinesweeperParallelStream evaluates the problem with Minesweeper across
// workers by partitioning the domain of the first non-constant GAO
// attribute (the first one whose bound, if any, is not a single point)
// into contiguous ranges. Each worker receives SliceTop views of the
// atoms leading with that attribute and detached views of the rest, so the cached
// indexes are shared — nothing is re-permuted or re-sorted per worker —
// and the sub-joins are independent with disjoint outputs.
//
// Tuples are emitted in GAO-lexicographic order: each worker buffers its
// (lex-ordered) partition in a pooled buffer and the driver drains the
// buffers in range order as workers complete. When emit returns false,
// outstanding workers are cancelled and the call returns nil; when ctx
// is cancelled, it returns ctx.Err(). Worker stats are summed into
// stats, with Outputs corrected to the number of tuples actually
// emitted.
func MinesweeperParallelStream(ctx context.Context, p *Problem, workers int, stats *certificate.Stats, emit func([]int) bool) error {
	if workers <= 1 {
		return MinesweeperStreamContext(ctx, p, stats, emit)
	}
	// Partition on the first GAO position whose bound is not pinned to a
	// single value: leading point bounds (pushed-down constants) leave
	// at most one distinct value, which would collapse every worker into
	// one. All positions before pp are single-valued, so draining the
	// workers in pp-range order still yields GAO-lex emission.
	pp := 0
	if p.Bounds != nil {
		for pp < len(p.GAO)-1 && p.Bounds[pp].Lo == p.Bounds[pp].Hi {
			pp++
		}
	}
	var lists [][]int
	for i := range p.Atoms {
		a := &p.Atoms[i]
		if len(a.Positions) > 0 && a.Positions[0] == pp {
			lo, hi := a.Tree.Top()
			lists = append(lists, a.Tree.Level(0)[lo:hi])
		}
	}
	if pp > 0 && len(lists) == 0 {
		// Every atom covering position pp leads with an earlier constant
		// column, so there is no tree root to slice: run sequentially.
		return MinesweeperStreamContext(ctx, p, stats, emit)
	}
	distinct := distinctSorted(lists...)
	if p.Bounds != nil && !p.Bounds[pp].Full() {
		// Values the partition-position bound rules out can never appear
		// in an output tuple; dropping them keeps every worker inside
		// the selected region.
		kept := distinct[:0]
		for _, v := range distinct {
			if p.Bounds[pp].Contains(v) {
				kept = append(kept, v)
			}
		}
		distinct = kept
	}
	if len(distinct) == 0 {
		return nil // every atom on the partition attribute is empty
	}
	ranges := splitRanges(distinct, workers)

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	parts := make([]*[][]int, len(ranges))
	statsParts := make([]certificate.Stats, len(ranges))
	errs := make([]error, len(ranges))
	done := make([]chan struct{}, len(ranges))
	var wg sync.WaitGroup
	for w := range ranges {
		done[w] = make(chan struct{})
		parts[w] = partsPool.Get().(*[][]int)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer close(done[w])
			defer func() {
				if r := recover(); r != nil {
					errs[w] = fmt.Errorf("core: minesweeper worker %d panicked: %v", w, r)
				}
			}()
			rg := ranges[w]
			sub := &Problem{GAO: p.GAO, Bounds: p.Bounds, Debug: p.Debug, DisableBoxes: p.DisableBoxes}
			sub.Atoms = make([]Atom, len(p.Atoms))
			views := make([]reltree.Tree, len(p.Atoms))
			for i, a := range p.Atoms {
				var tree *reltree.Tree
				if len(a.Positions) > 0 && a.Positions[0] == pp {
					tree = a.Tree.SliceTop(rg.lo, rg.hi)
				} else {
					views[i] = a.Tree.View()
					tree = &views[i]
				}
				sub.Atoms[i] = Atom{Name: a.Name, Tree: tree, Positions: a.Positions}
			}
			errs[w] = MinesweeperStreamContext(wctx, sub, &statsParts[w], func(t []int) bool {
				*parts[w] = append(*parts[w], t)
				return true
			})
		}(w)
	}

	stopped := false
	emitted := int64(0)
drain:
	for w := range ranges {
		<-done[w]
		if errs[w] != nil {
			break
		}
		for _, t := range *parts[w] {
			emitted++
			if !emit(t) {
				stopped = true
				cancel()
				break drain
			}
		}
	}
	cancel()
	wg.Wait()

	found := int64(0)
	for w := range ranges {
		found += statsParts[w].Outputs
		if stats != nil {
			stats.Add(&statsParts[w])
		}
		putParts(parts[w])
	}
	if stats != nil {
		stats.Outputs += emitted - found
	}
	if stopped {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil && err != context.Canceled {
			return err
		}
	}
	return nil
}

// MinesweeperParallel evaluates an arbitrary join with Minesweeper across
// workers, materializing the sorted result. It builds the indexes once
// and delegates to MinesweeperParallelStream, which shares them across
// workers via SliceTop views.
func MinesweeperParallel(gao []string, atoms []AtomSpec, workers int, stats *certificate.Stats) ([][]int, error) {
	p, err := NewProblem(gao, atoms)
	if err != nil {
		return nil, err
	}
	var out [][]int
	err = MinesweeperParallelStream(context.Background(), p, workers, stats, func(t []int) bool {
		out = append(out, t)
		return true
	})
	if err != nil {
		return nil, err
	}
	// Already sorted: the stream emits workers' lex-ordered partitions in
	// range order.
	return out, nil
}

// TriangleParallel evaluates the triangle query with the dyadic-CDS
// engine across the given number of workers, partitioning the A domain
// into contiguous ranges. The three indexes are built once; each worker
// runs over SliceTop views of R and T (whose first attribute is A) and a
// Clone view of S, so no per-worker re-indexing happens. This mirrors
// the paper's multi-threaded LogicBlox runs (Section 5.2). Stats from
// all workers are summed; outputs arrive sorted. workers ≤ 1 is
// sequential.
func TriangleParallel(r, s, t [][]int, workers int, stats *certificate.Stats) ([][]int, error) {
	rT, sT, tT, err := TriangleIndexes(r, s, t)
	if err != nil {
		return nil, err
	}
	if workers <= 1 {
		out, err := TriangleIndexed(rT, sT, tT, stats)
		if err != nil {
			return nil, err
		}
		sortTriples(out)
		return out, nil
	}
	distinct := distinctSorted(rT.Level(0), tT.Level(0))
	if len(distinct) == 0 {
		return nil, nil
	}
	ranges := splitRanges(distinct, workers)
	parts := make([][][]int, len(ranges))
	statsParts := make([]certificate.Stats, len(ranges))
	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for w := range ranges {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[w] = fmt.Errorf("core: triangle worker %d panicked: %v", w, p)
				}
			}()
			rg := ranges[w]
			rw := rT.SliceTop(rg.lo, rg.hi)
			tw := tT.SliceTop(rg.lo, rg.hi)
			if rw.Size() == 0 || tw.Size() == 0 {
				return
			}
			parts[w], errs[w] = TriangleIndexed(rw, sT.Clone(), tw, &statsParts[w])
		}(w)
	}
	wg.Wait()
	var out [][]int
	for w := range ranges {
		if errs[w] != nil {
			return nil, errs[w]
		}
		out = append(out, parts[w]...)
		if stats != nil {
			stats.Add(&statsParts[w])
		}
	}
	sortTriples(out)
	return out, nil
}

func sortTriples(ts [][]int) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}
