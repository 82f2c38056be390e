package relio

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadRelation feeds arbitrary bytes to the parser: it must never
// panic, and every relation it accepts must survive a WriteRelation →
// ReadRelation round trip unchanged.
func FuzzReadRelation(f *testing.F) {
	f.Add([]byte("# comment\nR: A B\n1 2\n3 4\n"))
	f.Add([]byte("S: X\n\n  7  \n# gap\n0\n"))
	f.Add([]byte("T: A B C\n1 2\n"))
	f.Add([]byte("U: A A\n"))
	f.Add([]byte("V: A\n-1\n"))
	f.Add([]byte("W: A\n99999999999999999999999\n"))
	f.Add([]byte("no header here\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		rel, err := ReadRelation(bytes.NewReader(data), "fuzz")
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteRelation(&buf, rel); err != nil {
			t.Fatalf("accepted relation does not write: %v (%+v)", err, rel)
		}
		again, err := ReadRelation(&buf, "fuzz2")
		if err != nil {
			t.Fatalf("written relation does not read back: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(again, rel) {
			t.Fatalf("round trip changed the relation:\nfirst:  %+v\nsecond: %+v", rel, again)
		}
	})
}
