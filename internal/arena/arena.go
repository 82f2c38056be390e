// Package arena provides the rewindable chunked allocator shared by the
// hot-path object pools: CDS tree nodes and the per-atom gap-exploration
// nodes. Slots are handed out sequentially from fixed-size chunks —
// stable addresses, one allocation per chunk instead of one per object —
// and Rewind restarts the hand-out without releasing memory, so a
// steady-state consumer stops allocating once it has reached its
// high-water footprint. Tuples is its never-rewound counterpart for
// output tuples, which the receiver owns.
package arena

// chunkSize is the allocation granularity in slots.
const chunkSize = 64

// Arena hands out *T slots chunk-at-a-time. The zero value is ready for
// use. Alloc does NOT zero recycled slots: callers reset the fields they
// care about, which lets objects retain their internal storage (e.g. a
// CDS node's key arrays) across rewinds.
type Arena[T any] struct {
	chunks      [][]T
	chunk, slot int
}

// Alloc returns the next slot. Slots from fresh chunks are zero values;
// slots reused after Rewind keep their previous contents.
func (a *Arena[T]) Alloc() *T {
	if a.chunk == len(a.chunks) {
		a.chunks = append(a.chunks, make([]T, chunkSize))
	}
	p := &a.chunks[a.chunk][a.slot]
	a.slot++
	if a.slot == chunkSize {
		a.chunk++
		a.slot = 0
	}
	return p
}

// Rewind restarts the hand-out at the first slot, retaining every chunk.
func (a *Arena[T]) Rewind() { a.chunk, a.slot = 0, 0 }

// TupleBlock is how many tuples share one flat backing array in Tuples.
const TupleBlock = 128

// Tuples carves fixed-width tuples out of flat blocks of TupleBlock
// tuples: one allocation per block instead of one per tuple. Every
// carve is a distinct full-capacity slice of a block that is never
// reused, so a receiver may retain it (and append to it without
// clobbering its neighbours); retaining one keeps its whole block
// reachable. The zero value with Width set (> 0) is ready for use.
type Tuples struct {
	Width int
	buf   []int
}

// Next returns a fresh tuple of length Width for the caller to fill.
func (a *Tuples) Next() []int {
	if cap(a.buf)-len(a.buf) < a.Width {
		a.buf = make([]int, 0, TupleBlock*a.Width)
	}
	start := len(a.buf)
	a.buf = a.buf[:start+a.Width]
	return a.buf[start:len(a.buf):len(a.buf)]
}

// Copy returns a fresh copy of t, which must have length Width.
func (a *Tuples) Copy(t []int) []int {
	out := a.Next()
	copy(out, t)
	return out
}
