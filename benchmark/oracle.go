package main

import (
	"fmt"
	"hash/crc32"
	"strconv"

	"minesweeper"
)

// expect is the oracle's verdict for one data state: the number of
// output tuples and an order-independent checksum of the NDJSON tuple
// lines (the sum of each line's CRC32), so a re-planned GAO that
// reorders the stream still verifies.
type expect struct {
	count int
	sum   uint64
}

func (e *expect) add(line []byte) {
	e.count++
	e.sum += uint64(crc32.ChecksumIEEE(line))
}

// appendTupleLine renders a tuple exactly as msserve writes it.
func appendTupleLine(buf []byte, t []int) []byte {
	buf = append(buf, '[')
	for i, v := range t {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	return append(buf, ']', '\n')
}

// oracle holds what every verified response must match: the base state
// and the state with each mutation batch applied.
type oracle struct {
	base      expect
	withBatch []expect
}

// buildOracle computes the expected result of every state the schedule
// can reach with an engine independent of the one msserve runs
// (Leapfrog Triejoin over freshly built relations).
func buildOracle(w *workload) (*oracle, error) {
	rels := map[string]*minesweeper.Relation{}
	for i := range w.rels {
		r := &w.rels[i]
		rel, err := minesweeper.NewRelation(r.name, len(r.vars), r.tuples)
		if err != nil {
			return nil, err
		}
		rels[r.name] = rel
	}
	q, err := minesweeper.ParseQuery(w.query, rels)
	if err != nil {
		return nil, err
	}
	pq, err := q.Prepare(&minesweeper.Options{Engine: minesweeper.EngineLeapfrog})
	if err != nil {
		return nil, err
	}
	run := func() (expect, error) {
		var e expect
		var line []byte
		_, err := pq.Stream(func(t []int) bool {
			line = appendTupleLine(line[:0], t)
			e.add(line)
			return true
		})
		return e, err
	}
	o := &oracle{}
	if o.base, err = run(); err != nil {
		return nil, err
	}
	for _, b := range w.batches {
		rel := rels[b.rel]
		if err := rel.Insert(b.tuples...); err != nil {
			return nil, err
		}
		e, err := run()
		if err != nil {
			return nil, err
		}
		o.withBatch = append(o.withBatch, e)
		if n, err := rel.Delete(b.tuples...); err != nil || n != len(b.tuples) {
			return nil, fmt.Errorf("oracle: deleting batch from %s removed %d of %d tuples: %v", b.rel, n, len(b.tuples), err)
		}
	}
	return o, nil
}
