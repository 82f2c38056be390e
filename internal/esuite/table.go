package esuite

import (
	"fmt"
	"io"
	"strings"
	"time"

	"minesweeper/internal/certificate"
)

// counters are the exact work counters of a run, in the column order of
// counters.golden; Bench reports the same list per operation.
var counters = []struct {
	name string
	get  func(st *certificate.Stats, outputs int) int64
}{
	{"probes", func(st *certificate.Stats, _ int) int64 { return st.ProbePoints }},
	{"findgaps", func(st *certificate.Stats, _ int) int64 { return st.FindGaps }},
	{"comparisons", func(st *certificate.Stats, _ int) int64 { return st.Comparisons }},
	{"constraints", func(st *certificate.Stats, _ int) int64 { return st.Constraints }},
	{"cdsops", func(st *certificate.Stats, _ int) int64 { return st.CDSOps }},
	{"boxes", func(st *certificate.Stats, _ int) int64 { return st.Boxes }},
	{"boxskips", func(st *certificate.Stats, _ int) int64 { return st.BoxSkips }},
	{"backtracks", func(st *certificate.Stats, _ int) int64 { return st.Backtracks }},
	{"outputs", func(_ *certificate.Stats, outputs int) int64 { return int64(outputs) }},
}

// WriteCounters prints one line per sequential case of rows with its
// exact counters: the content of testdata/counters.golden. WallClock
// cases are skipped (see Case.WallClock).
func WriteCounters(w io.Writer, rows []Row) error {
	fmt.Fprintf(w, "%-46s", "case")
	for _, c := range counters {
		fmt.Fprintf(w, " %11s", c.name)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		if r.WallClock {
			continue
		}
		fmt.Fprintf(w, "%-46s", r.Name)
		for _, c := range counters {
			fmt.Fprintf(w, " %11d", c.get(&r.Stats, r.Z))
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteTable prints the experiment's rows as a plain-text table — each
// row's coordinates (its name when it has none), the input size, every
// counter, the experiment's derived columns and the run time — with the
// claim it reproduces underneath.
func WriteTable(w io.Writer, e *Experiment, rows []Row) error {
	id := e.ID
	if e.Ref != "" {
		id += "/" + e.Ref
	}
	var elapsed time.Duration
	for _, r := range rows {
		elapsed += r.Elapsed
	}
	fmt.Fprintf(w, "== %s — %s (ran in %s)\n", id, e.Title, elapsed.Round(time.Millisecond))

	cols := []column{{"case", func(r Row) string { return r.Name }}}
	if len(rows) > 0 && len(rows[0].Coords) > 0 {
		cols = cols[:0]
		for _, c := range rows[0].Coords {
			cols = append(cols, column{c.Key, func(r Row) string { return r.coord(c.Key).String() }})
		}
	}
	cols = append(cols, column{"N(input)", func(r Row) string { return count(r.N) }})
	for _, c := range counters {
		cols = append(cols, column{c.name, func(r Row) string { return count(c.get(&r.Stats, r.Z)) }})
	}
	cols = append(cols, e.derived...)
	cols = append(cols, column{"time", func(r Row) string { return r.Elapsed.Round(10 * time.Microsecond).String() }})

	table := make([][]string, len(rows)+2) // headers, separator, one line per row
	for _, c := range cols {
		width := len(c.head)
		cells := make([]string, len(rows))
		for i, r := range rows {
			cells[i] = c.cell(r)
			width = max(width, len(cells[i]))
		}
		table[0] = append(table[0], fmt.Sprintf("%-*s", width, c.head))
		table[1] = append(table[1], strings.Repeat("-", width))
		for i, cell := range cells {
			table[i+2] = append(table[i+2], fmt.Sprintf("%-*s", width, cell))
		}
	}
	for _, line := range table {
		fmt.Fprintln(w, strings.TrimRight(strings.Join(line, "  "), " "))
	}
	_, err := fmt.Fprintf(w, "   claim: %s\n\n", e.Claim)
	return err
}

// column is one table column: a header and how to format a row's cell.
type column struct {
	head string
	cell func(Row) string
}

// count prints a count in K/M shorthand.
func count(v int64) string {
	switch {
	case v >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(v)/1e6)
	case v >= 1_000:
		return fmt.Sprintf("%.1fK", float64(v)/1e3)
	}
	return fmt.Sprint(v)
}
