package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"minesweeper"
)

// httpTimeout bounds every HTTP call the harness makes.
const httpTimeout = 60 * time.Second

// newHTTPClient returns the one client the harness drives msserve with:
// at most 2 keep-alive connections per instance.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: httpTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// tally counts attempts and failures per operation type. A failure is
// any transport error, unexpected status or oracle mismatch; the first
// few are kept for the report. Safe for concurrent use.
type tally struct {
	mu     sync.Mutex
	counts map[string]*[2]int // op → {attempted, failed}
	errs   []error
}

func newTally() *tally { return &tally{counts: map[string]*[2]int{}} }

// note records one attempt of op and returns err, labelled with op.
func (t *tally) note(op string, err error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.counts[op]
	if c == nil {
		c = new([2]int)
		t.counts[op] = c
	}
	c[0]++
	if err == nil {
		return nil
	}
	c[1]++
	err = fmt.Errorf("%s: %w", op, err)
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err)
	}
	return err
}

func (t *tally) totals() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.counts {
		attempted += c[0]
		failed += c[1]
	}
	return
}

func (t *tally) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.counts))
	for n := range t.counts {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%d/%d", n, t.counts[n][0]-t.counts[n][1], t.counts[n][0])
	}
	return b.String()
}

// client drives one msserve instance and verifies what it answers.
type client struct {
	http *http.Client
	base string
	ops  *tally
	tr   *tracer // nil unless this is the traced run
	req  string  // request id of the spans recorded now
}

// span records one timed HTTP request when tracing is on.
func (c *client) span(op string, start time.Time, took time.Duration) {
	if c.tr != nil {
		c.tr.record(c.req, -1, "msserve", "http "+op, start, took, 0)
	}
}

// call sends one request and returns the body of a 200 response.
func (c *client) call(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

func (c *client) load(r *relation) error {
	_, err := c.call(http.MethodPost, "/relations", r.relio())
	return c.ops.note("load", err)
}

// register registers the workload query under the name q and returns
// the plan msserve reports for it.
func (c *client) register(query string) (minesweeper.Explain, error) {
	body, _ := json.Marshal(map[string]string{"name": "q", "query": query})
	var resp struct {
		Explain minesweeper.Explain `json:"explain"`
	}
	out, err := c.call(http.MethodPost, "/queries", body)
	if err == nil {
		err = json.Unmarshal(out, &resp)
	}
	return resp.Explain, c.ops.note("register", err)
}

// mutationBody renders the JSON body of an insert or delete.
func mutationBody(tuples [][]int) []byte {
	body, _ := json.Marshal(map[string][][]int{"tuples": tuples})
	return body
}

// mutate posts an insert or delete, checks that the relation holds
// wantTuples afterwards and returns how long the request took.
func (c *client) mutate(op, rel string, body []byte, wantTuples int) (time.Duration, error) {
	start := time.Now()
	out, err := c.call(http.MethodPost, "/relations/"+rel+"/"+op, body)
	took := time.Since(start)
	c.span(op, start, took)
	var resp struct {
		Tuples int `json:"tuples"`
	}
	if err == nil {
		err = json.Unmarshal(out, &resp)
	}
	if err == nil && resp.Tuples != wantTuples {
		err = fmt.Errorf("%s holds %d tuples afterwards, want %d", rel, resp.Tuples, wantTuples)
	}
	return took, c.ops.note(op, err)
}

// runResult is one streamed query run as the client saw it.
type runResult struct {
	total time.Duration // request sent → footer read
	ttft  time.Duration // request sent → first tuple line read
	bytes int64         // response body size
	stats minesweeper.Stats
}

// run executes a streaming request (a registered run or an ad-hoc
// query), times it and checks the tuple lines against want. op names
// the operation for the failure tally.
func (c *client) run(op, method, path string, body []byte, want expect) (runResult, error) {
	var res runResult
	err := func() error {
		req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		start := time.Now()
		resp, err := c.http.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
		}
		var got expect
		var footer struct {
			Done     bool              `json:"done"`
			Tuples   int               `json:"tuples"`
			TimedOut bool              `json:"timed_out"`
			Error    string            `json:"error"`
			Stats    minesweeper.Stats `json:"stats"`
		}
		br := bufio.NewReaderSize(resp.Body, 64<<10)
		for {
			line, err := br.ReadSlice('\n')
			if len(line) > 0 {
				res.bytes += int64(len(line))
				if line[0] == '[' {
					if got.count == 0 {
						res.ttft = time.Since(start)
					}
					got.add(line)
				} else if bytes.HasPrefix(line, []byte(`{"done"`)) {
					if jerr := json.Unmarshal(line, &footer); jerr != nil {
						return jerr
					}
				}
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
		}
		res.total = time.Since(start)
		c.span(op, start, res.total)
		res.stats = footer.Stats
		switch {
		case !footer.Done:
			return fmt.Errorf("stream ended without a footer")
		case footer.TimedOut || footer.Error != "":
			return fmt.Errorf("run cut short: timed_out=%v error=%q", footer.TimedOut, footer.Error)
		case footer.Tuples != got.count:
			return fmt.Errorf("footer says %d tuples, stream carried %d", footer.Tuples, got.count)
		case got != want:
			return fmt.Errorf("oracle mismatch: got %d tuples checksum %x, want %d checksum %x", got.count, got.sum, want.count, want.sum)
		}
		return nil
	}()
	return res, c.ops.note(op, err)
}

// runQuery runs the registered query in full.
func (c *client) runQuery(op string, want expect) (runResult, error) {
	return c.run(op, http.MethodGet, "/queries/q/run", nil, want)
}

// serverStats is the part of GET /stats the harness reads.
type serverStats struct {
	AllocObjects uint64 `json:"alloc_objects_total"`
	Storage      struct {
		Snapshots  int64 `json:"snapshots"`
		Syncs      int64 `json:"syncs"`
		WALRecords int64 `json:"wal_records"`
		WALBytes   int64 `json:"wal_bytes"`
	} `json:"storage"`
	Admission map[string]struct {
		Shed int64 `json:"shed"`
	} `json:"admission"`
	Health struct {
		Failovers int64 `json:"failovers"`
		Retries   int64 `json:"substream_retries"`
	} `json:"health"`
}

func (c *client) stats() (serverStats, error) {
	var st serverStats
	out, err := c.call(http.MethodGet, "/stats", nil)
	if err == nil {
		err = json.Unmarshal(out, &st)
	}
	return st, c.ops.note("stats", err)
}
