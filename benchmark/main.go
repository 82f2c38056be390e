// Command benchmark is the repository's benchmark: it generates every
// input from a seed, builds cmd/msserve, serves each workload from a
// real msserve child process and drives it over HTTP on a paced,
// count-bounded schedule, verifying every response against an
// independent oracle. With -trace 1 it instead times the same inputs
// in-process at each layer's public functions and reports the per-layer
// metrics. See README.md for the metric glossary.
//
// The driver contract (BENCHMARK.json) is
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and the last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// period is the pacing of the schedule: round i starts no earlier than
// t0 + i·period, so the samples of every metric span the whole horizon
// instead of one contiguous window.
const period = 1250 * time.Millisecond

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	root    string
	scale   string
	seed    int64
	seconds int
	trace   bool
}

func main() { os.Exit(realMain()) }

// realMain returns the exit code, so that its deferred clean-up runs on
// every return and on a panic.
func realMain() int {
	var o options
	var workloadName string
	var trace, repeat int
	flag.StringVar(&o.root, "root", "", "checkout root (default: the nearest parent directory holding cmd/msserve)")
	flag.StringVar(&workloadName, "workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+" or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the paced horizon")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics from the untraced HTTP run; 1: per-layer metrics from the traced in-process run")
	flag.StringVar(&o.scale, "scale", "full", "data and schedule size: full or smoke")
	flag.IntVar(&repeat, "repeat", 1, "run everything this many times and print the relative difference of each metric between the first two")
	flag.Parse()
	o.trace = trace != 0

	if _, ok := scales[o.scale]; !ok {
		return fatal(fmt.Errorf("unknown -scale %q", o.scale))
	}
	names := workloadNames
	if workloadName != "all" {
		names = []string{workloadName}
	}
	root, err := findRoot(o.root)
	if err != nil {
		return fatal(err)
	}
	o.root = root
	e, err := newEnv(root)
	if err != nil {
		return fatal(err)
	}
	// Children and data directories go away on every exit path.
	defer e.cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		<-sig
		e.cleanup()
		os.Exit(130)
	}()
	return run(e, o, names, repeat)
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

// findRoot locates the checkout: the given directory, or the nearest
// parent of the working directory that holds cmd/msserve.
func findRoot(given string) (string, error) {
	if given != "" {
		return filepath.Abs(given)
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "msserve", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no checkout root with cmd/msserve above the working directory; pass -root")
		}
		dir = parent
	}
}

// run executes the named workloads repeat times and prints the final
// report line. It returns the process exit code.
func run(e *env, o options, names []string, repeat int) int {
	buildTook, err := e.build()
	if err != nil {
		return fatal(err)
	}
	// The build may use every CPU; everything measured runs on one.
	if cpu, err := pinToOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: not pinned to one CPU, timings will be noisier:", err)
	} else {
		fmt.Printf("harness and msserve pinned to CPU %d\n", cpu)
	}
	total := report{Correct: true, Metrics: map[string]metric{}}
	passes := make([]map[string]map[string]metric, repeat)
	for pass := range passes {
		passes[pass] = map[string]map[string]metric{}
		for _, name := range names {
			rep, err := runWorkload(e, o, name)
			if err != nil {
				return fatal(fmt.Errorf("%s: %w", name, err))
			}
			if o.trace {
				rep.Metrics["driver.build_s"] = metric{buildTook.Seconds(), "s"}
			}
			printMetrics(name, rep)
			passes[pass][name] = rep.Metrics
			total.Correct = total.Correct && rep.Correct
			total.Attempted += rep.Attempted
			total.Failed += rep.Failed
			total.Metrics = rep.Metrics
		}
	}
	if repeat > 1 {
		sp, err := loadSpec(e.root)
		if err != nil {
			return fatal(err)
		}
		bounds := map[string]float64{}
		for _, m := range sp.EndToEnd {
			bounds[m.Name] = m.Bound
		}
		printRepeat(names, passes[0], passes[1], bounds)
	}
	if len(names) > 1 {
		// One line per invocation: with several workloads the metrics
		// are the tables above, keyed by workload.
		total.Metrics = map[string]metric{}
		for _, name := range names {
			for k, v := range passes[0][name] {
				total.Metrics[name+"/"+k] = v
			}
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return fatal(err)
	}
	fmt.Println(string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printMetrics prints every metric by name with its unit.
func printMetrics(workload string, rep *report) {
	for _, k := range sortedKeys(rep.Metrics) {
		m := rep.Metrics[k]
		fmt.Printf("%-12s %-34s %16.4f %s\n", workload, k, m.Value, m.Unit)
	}
}

// printRepeat prints, per workload and metric, the relative difference
// between two passes over the same code, flagging any end-to-end metric
// whose difference exceeds its bound in BENCHMARK.json.
func printRepeat(names []string, a, b map[string]map[string]metric, bounds map[string]float64) {
	fmt.Println("| workload | metric | pass 1 | pass 2 | diff | bound | |")
	fmt.Println("|---|---|---|---|---|---|---|")
	for _, name := range names {
		for _, k := range sortedKeys(a[name]) {
			x, y := a[name][k].Value, b[name][k].Value
			diff := 0.0
			if x != y {
				diff = (y - x) / math.Max(math.Abs(x), math.Abs(y))
			}
			bound, flag := "", ""
			if bd, ok := bounds[k]; ok {
				bound = fmt.Sprintf("%.0f%%", 100*bd)
				if math.Abs(diff) > bd {
					flag = "OVER"
				}
			}
			fmt.Printf("| %s | %s | %.4f | %.4f | %+.1f%% | %s | %s |\n", name, k, x, y, 100*diff, bound, flag)
		}
	}
}

// finite reports whether every metric is a finite number, naming the
// first that is not.
func finite(m map[string]metric) error {
	for _, k := range sortedKeys(m) {
		if v := m[k].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v: no successful sample", k, v)
		}
	}
	return nil
}
