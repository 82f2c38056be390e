package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"minesweeper"
)

// plan is the fixed, count-bounded schedule of one run. Everything in
// it is derived from -seconds and -scale before the clock starts, so
// the sequence of requests — and with it every checksum, counter and
// byte count — is the same for the same seed.
type plan struct {
	rounds    int
	period    time.Duration // round i starts no earlier than t0 + i·period; 0 = unpaced
	timedRuns int           // timed warm runs per round
	blocks    int           // mutation blocks per round
	// Round i is followed by a from-scratch set-up on a side instance
	// when i%setupEvery == 0, and by kill -9 and restart of the main
	// instance when i%recoverEvery == recoverEvery-1: the samples of
	// both are spread over the whole horizon.
	setupEvery, recoverEvery int
	extras                   bool // also sample the informational msserve.* requests
	bursts                   int  // 2-connection bursts after the horizon
}

// httpResult is everything the paced schedule measured against the
// real msserve process. Timings are samples in milliseconds unless
// named otherwise.
type httpResult struct {
	run, ttft      []float64
	adhoc, limit10 []float64
	// Mutation-side samples, keyed by the mutated relation: which
	// relation a batch lands in decides the index that is rebuilt and
	// can decide the plan, so each relation is its own population.
	stale, mutate, insert, del strata
	setupS, recoverS           []float64
	allocs                     []float64 // heap objects msserve allocated over one round
	burstS                     []float64 // wall time of one 2-connection burst

	coldRunMs float64
	// Counters that restart with the process, summed over the main
	// instance's incarnations: compactions, WAL fsyncs, requests refused
	// with 429, replica failovers and substream retries.
	snapshots, syncs, shed, failovers, retries int64
	stats                                      minesweeper.Stats // footer of the last base-state run
	bytesPerRun                                int64
	lateRounds                                 int
	mutations                                  int
	hwmKB                                      []float64 // VmHWM of each incarnation of the main instance
	diskBytes                                  int64
	explain                                    minesweeper.Explain
	ops                                        *tally
}

// strata holds one metric's samples per population.
type strata map[string][]float64

func (s strata) add(key string, v float64) { s[key] = append(s[key], v) }

// q1 is the mean of the populations' q1: every population weighs the
// same however the quiet quarter would have fallen across them.
func (s strata) q1() float64 {
	sum := 0.0
	for _, xs := range s {
		sum += q1(xs)
	}
	return sum / float64(len(s))
}

// session is the main msserve instance across its incarnations.
type session struct {
	env  *env
	w    *workload
	o    *oracle
	dir  string
	in   *instance
	c    *client
	res  *httpResult
	last int // the batch the latest round ended with

	body [][]byte // JSON body of each batch, shared by insert and delete
}

// booted is a from-scratch set-up: the instance, the client bound to
// it, the wall time of all of it, the first (cold) run and the plan
// msserve reported at registration.
type booted struct {
	in   *instance
	c    *client
	took time.Duration
	cold runResult
	plan minesweeper.Explain
}

// boot sets an instance up from scratch: a fresh data directory, process
// start, relation loads, query registration and a first verified run.
func boot(e *env, w *workload, o *oracle, hc *http.Client, ops *tally, label string) (b booted, err error) {
	start := time.Now()
	if b.in, err = e.start(w, e.dataDir(label)); err != nil {
		return b, err
	}
	defer func() {
		if err != nil {
			b.in.kill()
		}
	}()
	b.c = &client{http: hc, base: b.in.base, ops: ops}
	for i := range w.rels {
		if err = b.c.load(&w.rels[i]); err != nil {
			return b, err
		}
	}
	if b.plan, err = b.c.register(w.query); err != nil {
		return b, err
	}
	if b.cold, err = b.c.runQuery("run_cold", o.base); err != nil {
		return b, err
	}
	b.took = time.Since(start)
	return b, nil
}

// runSchedule drives the workload's paced schedule against a real
// msserve child from one closed-loop client and returns the samples.
// Operation failures are tallied and the schedule carries on; only a
// child that cannot be started at all is an error.
//
// A non-nil tracer also gets one span per timed HTTP request; the
// end-to-end run passes nil.
func runSchedule(e *env, w *workload, o *oracle, p plan, tr *tracer) (*httpResult, error) {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	res := &httpResult{ops: newTally(), stale: strata{}, mutate: strata{}, insert: strata{}, del: strata{}}
	first, err := boot(e, w, o, hc, res.ops, "main")
	if err != nil {
		return nil, err
	}
	c := first.c
	c.tr = tr
	s := &session{env: e, w: w, o: o, dir: first.in.dir, in: first.in, c: c, res: res}
	defer func() { s.in.kill() }()
	res.setupS = append(res.setupS, first.took.Seconds())
	res.coldRunMs = ms(first.cold.total)
	res.explain = first.plan
	for _, b := range w.batches {
		s.body = append(s.body, mutationBody(b.tuples))
	}

	t0 := time.Now()
	for i := 0; i < p.rounds; i++ {
		if p.period > 0 {
			due := t0.Add(time.Duration(i) * p.period)
			if late := time.Since(due); late < 0 {
				time.Sleep(-late)
			} else if late > p.period/10 {
				res.lateRounds++
			}
		}
		c.req = fmt.Sprintf("round-%d", i)
		s.round(p, i)
		if i%p.setupEvery == 0 {
			side, err := boot(e, w, o, hc, res.ops, "side")
			if err != nil {
				return nil, fmt.Errorf("side set-up: %w", err)
			}
			side.in.kill()
			os.RemoveAll(side.in.dir)
			res.setupS = append(res.setupS, side.took.Seconds())
		}
		if i%p.recoverEvery == p.recoverEvery-1 {
			if err := s.crashAndRecover(); err != nil {
				return nil, err
			}
		}
	}

	if last, err := s.c.runQuery("run_warm", o.base); err == nil {
		res.stats, res.bytesPerRun = last.stats, last.bytes
	}
	res.diskBytes, _ = dirBytes(s.dir)
	if p.bursts > 0 {
		s.bursts(p.bursts)
	}
	s.endIncarnation()
	return res, nil
}

// round is slot i of the schedule on the main instance. Its mutation
// blocks continue the rotation over the batch pool where round i-1
// stopped; every workload's pool is a whole number of rounds long, so
// each round ends on the same relation and leaves the same plan behind
// for the next round's warm runs.
func (s *session) round(p plan, i int) {
	res, c, o := s.res, s.c, s.o
	before, errB := c.stats()
	// Untimed: absorbs the index rebuild the previous delete left behind.
	c.runQuery("run_warm", o.base)
	for j := 0; j < p.timedRuns; j++ {
		if r, err := c.runQuery("run", o.base); err == nil {
			res.run = append(res.run, ms(r.total))
			res.ttft = append(res.ttft, ms(r.ttft))
		}
	}
	for b := 0; b < p.blocks; b++ {
		k := (i*p.blocks + b) % len(s.w.batches)
		rel := s.w.batches[k].rel
		s.last = k
		ins, errI := s.insert(k)
		if r, err := c.runQuery("run_stale", o.withBatch[k]); err == nil {
			res.stale.add(rel, ms(r.total))
		}
		del, errD := s.delete(k)
		if errI == nil && errD == nil {
			res.insert.add(rel, ms(ins))
			res.del.add(rel, ms(del))
			res.mutate.add(rel, ms(ins+del))
		}
	}
	// The whole round's requests, so that the count is large against
	// the few hundred objects a GC cycle or an emptied pool adds.
	if after, errA := c.stats(); errB == nil && errA == nil {
		res.allocs = append(res.allocs, float64(after.AllocObjects-before.AllocObjects))
	}
	if p.extras {
		body, _ := json.Marshal(map[string]string{"query": s.w.query})
		if r, err := c.run("adhoc", http.MethodPost, "/query", body, o.base); err == nil {
			res.adhoc = append(res.adhoc, ms(r.total))
		}
		if d, err := s.limit10(); err == nil {
			res.limit10 = append(res.limit10, ms(d))
		}
	}
}

// insert applies batch k and checks the tuple count msserve reports.
func (s *session) insert(k int) (time.Duration, error) {
	b := &s.w.batches[k]
	s.res.mutations++
	return s.c.mutate("insert", b.rel, s.body[k], len(s.w.rel(b.rel).tuples)+len(b.tuples))
}

// delete removes batch k again, returning the data to its base state.
func (s *session) delete(k int) (time.Duration, error) {
	b := &s.w.batches[k]
	s.res.mutations++
	return s.c.mutate("delete", b.rel, s.body[k], len(s.w.rel(b.rel).tuples))
}

// limit10 times a run cut at ten tuples.
func (s *session) limit10() (time.Duration, error) {
	start := time.Now()
	out, err := s.c.call(http.MethodGet, "/queries/q/run?limit=10", nil)
	took := time.Since(start)
	want := min(10, s.o.base.count)
	if n := bytes.Count(out, []byte("\n[")); err == nil && n != want {
		err = fmt.Errorf("got %d tuple lines, want %d", n, want)
	}
	return took, s.c.ops.note("limit10", err)
}

// crashAndRecover inserts a batch, kills the main instance with
// SIGKILL once the insert is acknowledged, restarts it on the same data
// directory and times the restart until /readyz is 200 and a full run
// returns the checksum that includes the acknowledged batch.
func (s *session) crashAndRecover() error {
	// The batch the round just ended with, so that the plan the restart
	// prepares from scratch is the one the round left behind.
	k := s.last
	_, insErr := s.insert(k)
	s.endIncarnation()
	start := time.Now()
	in, err := s.env.start(s.w, s.dir)
	if err != nil {
		return fmt.Errorf("restart after kill -9: %w", err)
	}
	s.in, s.c.base = in, in.base
	want := s.o.withBatch[k]
	if insErr != nil {
		want = s.o.base
	}
	if _, err := s.c.runQuery("run_recovered", want); err == nil {
		s.res.recoverS = append(s.res.recoverS, time.Since(start).Seconds())
	}
	s.delete(k)
	return nil
}

// endIncarnation reads the counters that reset with the process, then
// kills it with SIGKILL.
func (s *session) endIncarnation() {
	if st, err := s.c.stats(); err == nil {
		s.res.snapshots += st.Storage.Snapshots
		s.res.syncs += st.Storage.Syncs
		s.res.failovers += st.Health.Failovers
		s.res.retries += st.Health.Retries
		for _, g := range st.Admission {
			s.res.shed += g.Shed
		}
	}
	s.in.kill()
	s.res.hwmKB = append(s.res.hwmKB, float64(s.in.hwmKB))
}

// bursts measures throughput with both connections busy: each burst is
// two concurrent full runs, one per connection.
func (s *session) bursts(n int) {
	for i := 0; i < n; i++ {
		var wg sync.WaitGroup
		var failed atomic.Bool
		start := time.Now()
		for j := 0; j < 2; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.c.runQuery("run_c2", s.o.base); err != nil {
					failed.Store(true)
				}
			}()
		}
		wg.Wait()
		if !failed.Load() {
			s.res.burstS = append(s.res.burstS, time.Since(start).Seconds())
		}
	}
}
