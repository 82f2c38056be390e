package rows

import (
	"strconv"
	"strings"
)

// blockInts is the chunk size of a Block: 32 KiB of ints, a few
// thousand typical rows per allocation.
const blockInts = 4096

// Block carves the rows of a text file out of chunked []int blocks, one
// allocation per chunk instead of one per row. The zero value is ready
// for use. Rows stay valid for as long as their holder keeps them; a
// block is never reused.
type Block struct {
	chunk []int // len = ints handed out so far
}

// ParseRow parses a tuple line — whitespace-separated non-negative
// decimal integers — into a row carved from the block. A line holding
// anything else yields no row: fields then counts its fields and bad is
// the first one that is not a non-negative integer, for the caller's
// error message (on success fields is len(row) and bad is empty).
//
// The plain form, digit runs separated by ASCII blanks, is parsed
// straight from the bytes. Any other line (a sign, an exotic blank, a
// letter, a value that might overflow) is re-read with strings.Fields
// and strconv.Atoi, which accept a few more spellings, so the fast path
// never changes what parses.
func (b *Block) ParseRow(line []byte) (row []int, fields int, bad string) {
	const maxDigits = 18 // 10^18 < 2^63: no overflow check per digit
	if cap(b.chunk)-len(b.chunk) < 16 {
		b.chunk = make([]int, 0, blockInts)
	}
	row = b.chunk[len(b.chunk):]
	inPlace := true
	for i := 0; i < len(line); {
		c := line[i]
		if c == ' ' || c == '\t' || c == '\r' {
			i++
			continue
		}
		v, start := 0, i
		for ; i < len(line) && line[i] >= '0' && line[i] <= '9'; i++ {
			v = v*10 + int(line[i]-'0')
		}
		if i == start || i-start > maxDigits {
			return parseRowSlow(line)
		}
		if len(row) == cap(row) {
			inPlace = false // a row wider than the chunk's tail gets its own array
		}
		row = append(row, v)
	}
	if inPlace {
		b.chunk = b.chunk[:len(b.chunk)+len(row)]
	}
	return row[:len(row):len(row)], len(row), ""
}

func parseRowSlow(line []byte) (row []int, fields int, bad string) {
	fs := strings.Fields(string(line))
	row = make([]int, len(fs))
	for i, f := range fs {
		v, err := strconv.Atoi(f)
		if err != nil || v < 0 {
			return nil, len(fs), f
		}
		row[i] = v
	}
	return row, len(fs), ""
}
