// Package relio reads and writes relations in the library's plain-text
// interchange format:
//
//	# comment
//	Name: V1 V2 V3
//	1 2 3
//	4 5 6
//
// The header line gives the relation name and its variable binding; each
// further non-comment line is one tuple of non-negative integers. The
// format round-trips through ReadRelation/WriteRelation and is the format
// accepted by cmd/msjoin.
package relio

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"minesweeper/internal/rows"
)

// Relation is a parsed relation: its name, the variables it binds, and
// its tuples (each of length len(Vars)).
type Relation struct {
	Name   string
	Vars   []string
	Tuples [][]int
}

// maxLine caps how far the scanner buffer may grow for a single input
// line (1 GiB — effectively "any realistic tuple width" while still
// bounding memory against malformed input).
const maxLine = 1 << 30

// ReadRelation parses the text format from r; name is used in error
// messages (typically the file path). Lines may be arbitrarily wide:
// the scan buffer starts small and grows on demand up to maxLine, and a
// line exceeding even that cap is reported with its line number rather
// than as a bare bufio.ErrTooLong.
func ReadRelation(r io.Reader, name string) (*Relation, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLine)
	out := &Relation{}
	var block rows.Block // tuple rows are carved from shared chunks
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		if out.Name == "" {
			head, rest, found := strings.Cut(string(line), ":")
			if !found {
				return nil, fmt.Errorf("%s:%d: header must be 'Name: V1 V2 …'", name, lineNo)
			}
			out.Name = strings.TrimSpace(head)
			out.Vars = strings.Fields(rest)
			if out.Name == "" || len(out.Vars) == 0 {
				return nil, fmt.Errorf("%s:%d: empty name or variable list", name, lineNo)
			}
			seen := map[string]bool{}
			for _, v := range out.Vars {
				if seen[v] {
					return nil, fmt.Errorf("%s:%d: repeated variable %q", name, lineNo, v)
				}
				seen[v] = true
			}
			continue
		}
		tup, fields, bad := block.ParseRow(line)
		if fields != len(out.Vars) {
			return nil, fmt.Errorf("%s:%d: %d values, want %d", name, lineNo, fields, len(out.Vars))
		}
		if bad != "" {
			return nil, fmt.Errorf("%s:%d: bad value %q (want non-negative integer)", name, lineNo, bad)
		}
		out.Tuples = append(out.Tuples, tup)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("%s:%d: line exceeds %d bytes: %w", name, lineNo+1, maxLine, err)
		}
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if out.Name == "" {
		return nil, fmt.Errorf("%s: missing header line", name)
	}
	return out, nil
}

// WriteRelation emits the text format. Output round-trips through
// ReadRelation.
func WriteRelation(w io.Writer, rel *Relation) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%s: %s\n", rel.Name, strings.Join(rel.Vars, " ")); err != nil {
		return err
	}
	for _, tup := range rel.Tuples {
		if len(tup) != len(rel.Vars) {
			return fmt.Errorf("relio: tuple %v has %d values, want %d", tup, len(tup), len(rel.Vars))
		}
		for i, v := range tup {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.Itoa(v)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
