package storage

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/url"
	"strconv"
	"strings"

	"minesweeper/internal/rows"
)

// WAL framing. Each record is a header line followed by zero or more
// payload lines:
//
//	#!ms <op> <name> <epoch> <npayload> <crc32>
//	<payload line 1>
//	…
//
// The name is URL-path-escaped (never empty). npayload counts the
// payload lines; the CRC32 (IEEE, hex) covers the header fields after
// "#!ms" up to and excluding the CRC itself, plus every payload line,
// newlines included — a flipped bit anywhere in the record fails the
// check. Payload lines are relio-compatible: tuples are space-separated
// non-negative integers exactly as relio writes them, variable bindings
// are space-separated fields (escaped like the name), and a query
// definition is one JSON object. Framing lines start with "#", so a
// plain relio reader treats a WAL or snapshot as comments plus tuple
// data. Blank lines and "#" comments that are not "#!ms" headers are
// skipped between records.
//
// Per-op payloads:
//
//	create    vars line, then the initial tuples
//	replace   vars line, then the replacement tuples
//	insert    tuple lines
//	delete    tuple lines
//	drop      none
//	putquery  one JSON line
//	dropquery none
const recMagic = "#!ms"

// appendInt appends the decimal rendering of v.
func appendInt(b []byte, v int) []byte {
	return strconv.AppendInt(b, int64(v), 10)
}

// encodeRecord appends the framed record to buf and returns it.
func encodeRecord(buf []byte, rec *Record) ([]byte, error) {
	opName, ok := opNames[rec.Op]
	if !ok {
		return nil, fmt.Errorf("storage: encode: unknown op %d", rec.Op)
	}
	if rec.Name == "" {
		return nil, fmt.Errorf("storage: encode: %s record without a name", opName)
	}
	var payload []byte
	addLine := func(line []byte) {
		payload = append(payload, line...)
		payload = append(payload, '\n')
	}
	nPayload := 0
	switch rec.Op {
	case OpCreate, OpReplace:
		if len(rec.Vars) == 0 {
			return nil, fmt.Errorf("storage: encode: %s record for %q without vars", opName, rec.Name)
		}
		esc := make([]string, len(rec.Vars))
		for i, v := range rec.Vars {
			esc[i] = url.PathEscape(v)
		}
		addLine([]byte(strings.Join(esc, " ")))
		nPayload = 1 + len(rec.Tuples)
	case OpInsert, OpDelete:
		nPayload = len(rec.Tuples)
	case OpPutQuery:
		if rec.Query == nil {
			return nil, fmt.Errorf("storage: encode: putquery record for %q without a definition", rec.Name)
		}
		js, err := json.Marshal(rec.Query)
		if err != nil {
			return nil, fmt.Errorf("storage: encode query %q: %w", rec.Name, err)
		}
		addLine(js)
		nPayload = 1
	case OpDrop, OpDropQuery:
		if len(rec.Tuples) != 0 {
			return nil, fmt.Errorf("storage: encode: %s record for %q carries tuples", opName, rec.Name)
		}
	}
	switch rec.Op {
	case OpCreate, OpReplace, OpInsert, OpDelete:
		line := make([]byte, 0, 32)
		for _, tup := range rec.Tuples {
			line = line[:0]
			for i, v := range tup {
				if v < 0 {
					return nil, fmt.Errorf("storage: encode: %s record for %q has negative value %d", opName, rec.Name, v)
				}
				if i > 0 {
					line = append(line, ' ')
				}
				line = appendInt(line, v)
			}
			addLine(line)
		}
	}

	// CRC covers "<op> <name> <epoch> <npayload>\n" + payload.
	head := fmt.Sprintf("%s %s %d %d", opName, url.PathEscape(rec.Name), rec.Epoch, nPayload)
	crc := crc32.NewIEEE()
	io.WriteString(crc, head)
	crc.Write([]byte{'\n'})
	crc.Write(payload)

	buf = append(buf, recMagic...)
	buf = append(buf, ' ')
	buf = append(buf, head...)
	buf = append(buf, ' ')
	buf = appendCRC(buf, crc.Sum32())
	buf = append(buf, '\n')
	return append(buf, payload...), nil
}

func appendCRC(b []byte, crc uint32) []byte {
	return fmt.Appendf(b, "%08x", crc)
}

// recordError is a CRC or framing error at a known position in the
// stream. Recovery treats one at the tail of the WAL as a torn write
// and truncates; anywhere else it is corruption and fatal.
type recordError struct {
	src  string // file name for messages
	line int    // 1-based line number of the offending line
	msg  string
}

func (e *recordError) Error() string {
	return fmt.Sprintf("%s:%d: %s", e.src, e.line, e.msg)
}

// recordReader reads framed records from a WAL or snapshot stream,
// tracking byte offsets so a torn tail can be truncated at the last
// record boundary.
type recordReader struct {
	src    string
	r      *bufio.Reader
	off    int64 // bytes consumed so far
	lineNo int   // lines consumed so far
	// long collects a line that outgrows the bufio buffer, and payload
	// the payload lines of the record being read (the CRC must verify
	// before any of it is decoded); both are reused across records.
	long    []byte
	payload []byte
}

func newRecordReader(r io.Reader, src string) *recordReader {
	return &recordReader{src: src, r: bufio.NewReaderSize(r, 64<<10)}
}

// Offset returns the byte offset after the last fully consumed line —
// the truncation point if the next record turns out to be torn.
func (rr *recordReader) Offset() int64 { return rr.off }

// readLine returns the next line without its newline; the bytes are
// valid until the next call. A final line with no terminating newline —
// a torn write — is reported as errUnterminated; io.EOF means a clean
// end of stream.
var errUnterminated = fmt.Errorf("unterminated line")

func (rr *recordReader) readLine() ([]byte, error) {
	line, err := rr.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		rr.long = append(rr.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = rr.r.ReadSlice('\n')
			rr.long = append(rr.long, line...)
		}
		line = rr.long
	}
	if err == io.EOF {
		if len(line) > 0 {
			// The torn bytes are NOT counted into off: truncation cuts
			// them away.
			return nil, errUnterminated
		}
		return nil, io.EOF
	}
	if err != nil {
		return nil, err
	}
	rr.off += int64(len(line))
	rr.lineNo++
	return line[:len(line)-1], nil
}

func (rr *recordReader) errf(line int, format string, args ...any) *recordError {
	return &recordError{src: rr.src, line: line, msg: fmt.Sprintf(format, args...)}
}

// Read returns the next record. io.EOF signals a clean end of stream;
// errUnterminated a torn final line; a *recordError a framing or CRC
// violation at the reported line. For the latter two, Offset() is the
// last record boundary — the safe truncation point.
func (rr *recordReader) Read() (*Record, error) {
	// Skip blanks and non-record comments between records.
	var header string
	for {
		line, err := rr.readLine()
		if err != nil {
			return nil, err
		}
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) == 0 {
			continue
		}
		if bytes.HasPrefix(trimmed, []byte(recMagic+" ")) {
			header = string(trimmed)
			break
		}
		if trimmed[0] == '#' {
			continue
		}
		return nil, rr.errf(rr.lineNo, "expected record header, got %q", line)
	}
	headLine := rr.lineNo

	fields := strings.Fields(header)
	// recMagic op name epoch npayload crc
	if len(fields) != 6 {
		return nil, rr.errf(headLine, "record header has %d fields, want 6", len(fields))
	}
	op, ok := opByName[fields[1]]
	if !ok {
		return nil, rr.errf(headLine, "unknown record op %q", fields[1])
	}
	name, err := url.PathUnescape(fields[2])
	if err != nil || name == "" {
		return nil, rr.errf(headLine, "bad record name %q", fields[2])
	}
	epoch, err := strconv.ParseUint(fields[3], 10, 64)
	if err != nil {
		return nil, rr.errf(headLine, "bad record epoch %q", fields[3])
	}
	nPayload, err := strconv.Atoi(fields[4])
	if err != nil || nPayload < 0 {
		return nil, rr.errf(headLine, "bad record payload count %q", fields[4])
	}
	wantCRC, err := strconv.ParseUint(fields[5], 16, 32)
	if err != nil || len(fields[5]) != 8 {
		return nil, rr.errf(headLine, "bad record crc %q", fields[5])
	}

	crc := crc32.NewIEEE()
	fmt.Fprintf(crc, "%s %s %s %s\n", fields[1], fields[2], fields[3], fields[4])

	rec := &Record{Op: op, Name: name, Epoch: epoch}
	rr.payload = rr.payload[:0]
	for i := 0; i < nPayload; i++ {
		line, err := rr.readLine()
		if err != nil {
			if err == io.EOF {
				return nil, errUnterminated // header promised more payload
			}
			return nil, err
		}
		rr.payload = append(append(rr.payload, line...), '\n')
	}
	crc.Write(rr.payload)
	if got := crc.Sum32(); got != uint32(wantCRC) {
		return nil, rr.errf(headLine, "crc mismatch: computed %08x, header says %08x", got, uint32(wantCRC))
	}

	// CRC verified; decode the payload. next cuts its lines off one at
	// a time; payloadLine is the file line of the one about to be cut.
	rest := rr.payload
	next := func() (line []byte) {
		line, rest, _ = bytes.Cut(rest, []byte{'\n'})
		return line
	}
	payloadLine := headLine + 1
	switch op {
	case OpCreate, OpReplace:
		if nPayload == 0 {
			return nil, rr.errf(headLine, "%s record without a vars line", op)
		}
		for _, f := range strings.Fields(string(next())) {
			v, err := url.PathUnescape(f)
			if err != nil {
				return nil, rr.errf(payloadLine, "bad variable %q", f)
			}
			rec.Vars = append(rec.Vars, v)
		}
		if len(rec.Vars) == 0 {
			return nil, rr.errf(payloadLine, "%s record with an empty vars line", op)
		}
		nPayload--
		payloadLine++
	case OpPutQuery:
		if nPayload != 1 {
			return nil, rr.errf(headLine, "putquery record with %d payload lines, want 1", nPayload)
		}
		def := &QueryDef{}
		if err := json.Unmarshal(next(), def); err != nil {
			return nil, rr.errf(payloadLine, "bad query definition: %v", err)
		}
		if def.Name == "" {
			def.Name = name
		}
		rec.Query = def
		return rec, nil
	case OpDrop, OpDropQuery:
		if nPayload != 0 {
			return nil, rr.errf(headLine, "%s record with %d payload lines, want 0", op, nPayload)
		}
		return rec, nil
	}
	// The remaining nPayload lines are tuples: parsed straight from the
	// payload bytes into rows carved from shared chunks.
	rec.Tuples = make([][]int, 0, nPayload)
	var block rows.Block
	for ; nPayload > 0; nPayload, payloadLine = nPayload-1, payloadLine+1 {
		tup, _, bad := block.ParseRow(next())
		if bad != "" {
			return nil, rr.errf(payloadLine, "bad tuple value %q (want non-negative integer)", bad)
		}
		rec.Tuples = append(rec.Tuples, tup)
	}
	return rec, nil
}
