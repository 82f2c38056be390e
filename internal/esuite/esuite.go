// Package esuite is the repo's one in-module workload registry. Every
// workload — the paper's tables and figures, one measured experiment
// per quantitative theorem, the system workloads added since (selection
// pushdown, aggregation, planning, box covers, durability, sharding)
// and the substrate micro-benchmarks — is a Case defined here exactly
// once, grouped into Experiments. Four consumers read this list and
// nothing else:
//
//   - Bench, the generic testing.B loop behind BenchmarkSuite and the
//     BENCH_<n>.json trajectory written by `msbench -json`;
//   - Run + WriteTable, the typed rows and the tables (formatted only
//     at print time) behind `msbench -exp <key>`;
//   - the paper-shape tests of this package, which assert on those rows;
//   - WriteCounters, the exact certificate counters of every sequential
//     case (`msbench -exp counters`), committed as
//     testdata/counters.golden and compared byte-for-byte by go test:
//     the repo's regression gate on certificate work.
//
// Case names are stable identifiers: comparisons between two
// BENCH_*.json files and the counter golden match on them, so renaming
// one breaks the recorded trajectory — add new cases instead.
package esuite

import (
	"fmt"
	"time"

	"minesweeper/internal/certificate"
)

// Scale selects how much of each experiment's sweep runs.
type Scale int

// Experiment scales.
const (
	Small Scale = iota // unit-test sized: what go test and the counter golden run
	Full               // msbench sized
)

// Coord is one sweep coordinate of a case: a number (M, K, n, …) or a
// label (dataset, engine, GAO, …).
type Coord struct {
	Key string
	Num int
	Str string
}

func num(key string, v int) Coord      { return Coord{Key: key, Num: v} }
func label(key string, v string) Coord { return Coord{Key: key, Str: v} }

func (c Coord) String() string {
	if c.Str != "" {
		return c.Str
	}
	return fmt.Sprint(c.Num)
}

// Instance is a case made ready to run: inputs generated, indexes built.
type Instance struct {
	// N is the input size in tuples (0 where that is not meaningful).
	N int64
	// Run executes the workload once, accumulating its certificate work
	// into stats, and reports the number of output tuples.
	Run func(stats *certificate.Stats) (outputs int, err error)
	// Close releases what Setup acquired outside the heap; may be nil.
	Close func()
}

// Case is one workload of an experiment.
type Case struct {
	// Name is the stable identifier (the BENCH_<n>.json benchmark name).
	Name string
	// Coords are the sweep coordinates, in table-column order.
	Coords []Coord
	// Small and Full say which scales' tables include the case; Tracked
	// puts it into BenchmarkSuite and the BENCH_<n>.json trajectory
	// (at Full scale).
	Small, Full, Tracked bool
	// WallClock marks a case whose result is a wall-clock time or
	// depends on the scheduler, so its counters are not a function of
	// the input alone: the E14 durability cases (no certificate work at
	// all — the number is the fsync) and E15's replicated writes. Such
	// cases appear in tables and benchmarks but not in counters.golden.
	// Every other
	// case is sequential and gated — including the engine races of E3
	// and E17, whose point is the tables' time column but whose
	// counters are exact.
	WallClock bool
	// Setup builds the instance. Scale shrinks cases whose name does
	// not pin their size (Figure 2's datasets, Appendix H's sets).
	Setup func(Scale) (*Instance, error)
}

// Num returns the numeric coordinate key; a missing key is a registry bug.
func (c *Case) Num(key string) int { return c.coord(key).Num }

// Label returns the label coordinate key.
func (c *Case) Label(key string) string { return c.coord(key).Str }

func (c *Case) coord(key string) Coord {
	for _, co := range c.Coords {
		if co.Key == key {
			return co
		}
	}
	panic(fmt.Sprintf("esuite: case %s has no coordinate %q", c.Name, key))
}

func (c *Case) in(s Scale) bool {
	if s == Small {
		return c.Small
	}
	return c.Full
}

// Experiment is a group of cases reproducing one claim.
type Experiment struct {
	ID    string // "E1" … "E17", or "micro"
	Key   string // the msbench -exp name
	Ref   string // where in the paper (empty for the system workloads)
	Title string
	// Claim is what the experiment reproduces and the shape to expect;
	// the tests of this package assert its counter half on Run's rows
	// (wall-clock claims are left to the reader of the table).
	Claim string
	Cases []Case
	// derived are the table columns the claim reads off, computed from
	// a row's typed values (N/|C|, probes/M, …); WriteTable prints them
	// after the counters.
	derived []column
}

// Row is the typed result of running one case once.
type Row struct {
	*Case
	N       int64 // input size
	Z       int   // output tuples
	Stats   certificate.Stats
	Elapsed time.Duration
}

// Experiments returns the registry in experiment order.
func Experiments() []*Experiment { return registry }

var registry = []*Experiment{
	figure2(), betaAcyclic(), appendixJ(), intersection(), bowtie(), triangle(),
	treewidth(), memoization(), gaoDependence(), pushdown(), aggregate(), planning(),
	clustered(), durability(), sharding(), gaoQuality(), layeredPath(), parallel(), micro(),
}

// Find returns the experiment with the given key, or nil.
func Find(key string) *Experiment {
	for _, e := range registry {
		if e.Key == key {
			return e
		}
	}
	return nil
}

// Run executes every case of the experiment that belongs to the scale,
// once each, and returns the typed rows in case order.
func (e *Experiment) Run(scale Scale) ([]Row, error) {
	var rows []Row
	for i := range e.Cases {
		c := &e.Cases[i]
		if !c.in(scale) {
			continue
		}
		r, err := c.run(scale)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

func (c *Case) run(scale Scale) (Row, error) {
	inst, err := c.Setup(scale)
	if err != nil {
		return Row{}, err
	}
	if inst.Close != nil {
		defer inst.Close()
	}
	r := Row{Case: c, N: inst.N}
	start := time.Now()
	r.Z, err = inst.Run(&r.Stats)
	r.Elapsed = time.Since(start)
	return r, err
}
