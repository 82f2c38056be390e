package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Faulty wraps any Backend and deterministically injects failures at
// every operation boundary, so tests (and the "faulty" rows of the
// catalog and msserve test matrices) can prove log-then-apply
// atomicity, poison semantics and fail-soft compaction under faults
// nobody thought to hand-write.
//
// Faults come from a script — a semicolon-separated list of rules:
//
//	rule  := op '@' occur '=' fault
//	op    := append | sync | compact | recover | close
//	occur := '*'            every call
//	       | N              exactly the Nth call of that op (1-based)
//	       | N '+'          the Nth call and every later one
//	       | N '/' K        every Kth call starting at the Nth
//	fault := err            generic injected I/O error
//	       | enospc         disk-full (wraps syscall.ENOSPC)
//	       | torn[:BYTES]   partial write of the framed record, then
//	                        failure (append only; BYTES defaults to
//	                        half the record)
//	       | delay:DUR      sleep DUR, then perform the op normally
//
// For example "append@3=torn:17; compact@1/2=err; sync@*=delay:100us"
// tears the third append after 17 bytes, fails every odd compaction,
// and slows every sync by 100µs. The first rule matching a call wins.
//
// Error faults wrap ErrInjected, so a test can always tell an injected
// failure from a real bug. When the inner backend is a *Durable,
// injected append faults write the torn prefix into the real WAL file
// and poison the backend exactly as a genuine write error would —
// recovery from that directory then exercises true torn-tail
// truncation — and injected sync faults poison it likewise. Over any
// other backend the fault is the returned error alone. Compaction
// faults never touch the inner backend: like a real snapshot-write
// failure they are fail-soft, the WAL stays authoritative and the
// caller retries later.
type Faulty struct {
	inner Backend
	rules []faultRule
	rng   *rand.Rand // optional random injection (NewFaultyRand)
	rate  float64

	mu       sync.Mutex
	counts   map[string]int // per-op call counts
	injected int64
	lastErr  string
}

// ErrInjected is the root of every fault the Faulty backend injects.
var ErrInjected = errors.New("storage: injected fault")

type faultKind int

const (
	faultErr faultKind = iota
	faultENOSPC
	faultTorn
	faultDelay
)

type faultRule struct {
	op    string
	start int // first matching call (1-based); 0 = every call
	step  int // 0 = only start matches; 1 = start and later; k>1 = every kth from start
	kind  faultKind
	bytes int           // faultTorn: prefix bytes to land (-1 = half the record)
	delay time.Duration // faultDelay
}

// matches reports whether the rule fires on the nth call (1-based).
func (r *faultRule) matches(op string, n int) bool {
	if r.op != op {
		return false
	}
	switch {
	case r.start == 0:
		return true
	case n < r.start:
		return false
	case r.step == 0:
		return n == r.start
	default:
		return (n-r.start)%r.step == 0
	}
}

var faultOps = map[string]bool{
	"append": true, "sync": true, "compact": true, "recover": true, "close": true,
}

// ParseFaultScript parses the fault-script grammar documented on
// Faulty. An empty script is valid (no faults).
func ParseFaultScript(script string) ([]faultRule, error) {
	var rules []faultRule
	for _, raw := range strings.Split(script, ";") {
		part := strings.TrimSpace(raw)
		if part == "" {
			continue
		}
		opOccur, fault, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("storage: fault rule %q: missing '='", part)
		}
		opName, occur, ok := strings.Cut(strings.TrimSpace(opOccur), "@")
		if !ok {
			return nil, fmt.Errorf("storage: fault rule %q: missing '@'", part)
		}
		opName = strings.TrimSpace(opName)
		if !faultOps[opName] {
			return nil, fmt.Errorf("storage: fault rule %q: unknown op %q", part, opName)
		}
		rule := faultRule{op: opName}
		occur = strings.TrimSpace(occur)
		switch {
		case occur == "*":
			// start 0: every call.
		case strings.HasSuffix(occur, "+"):
			n, err := strconv.Atoi(occur[:len(occur)-1])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("storage: fault rule %q: bad occurrence %q", part, occur)
			}
			rule.start, rule.step = n, 1
		case strings.Contains(occur, "/"):
			ns, ks, _ := strings.Cut(occur, "/")
			n, err1 := strconv.Atoi(ns)
			k, err2 := strconv.Atoi(ks)
			if err1 != nil || err2 != nil || n < 1 || k < 1 {
				return nil, fmt.Errorf("storage: fault rule %q: bad occurrence %q", part, occur)
			}
			rule.start, rule.step = n, k
		default:
			n, err := strconv.Atoi(occur)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("storage: fault rule %q: bad occurrence %q", part, occur)
			}
			rule.start = n
		}
		fault = strings.TrimSpace(fault)
		kindName, arg, hasArg := strings.Cut(fault, ":")
		switch kindName {
		case "err":
			rule.kind = faultErr
		case "enospc":
			rule.kind = faultENOSPC
		case "torn":
			rule.kind = faultTorn
			rule.bytes = -1
			if hasArg {
				n, err := strconv.Atoi(arg)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("storage: fault rule %q: bad torn byte count %q", part, arg)
				}
				rule.bytes = n
			}
		case "delay":
			if !hasArg {
				return nil, fmt.Errorf("storage: fault rule %q: delay needs a duration", part)
			}
			d, err := time.ParseDuration(arg)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("storage: fault rule %q: bad delay %q", part, arg)
			}
			rule.kind, rule.delay = faultDelay, d
		default:
			return nil, fmt.Errorf("storage: fault rule %q: unknown fault %q", part, fault)
		}
		if rule.kind == faultTorn && rule.op != "append" {
			return nil, fmt.Errorf("storage: fault rule %q: torn applies to append only", part)
		}
		rules = append(rules, rule)
	}
	return rules, nil
}

// NewFaulty wraps inner with the given fault script.
func NewFaulty(inner Backend, script string) (*Faulty, error) {
	rules, err := ParseFaultScript(script)
	if err != nil {
		return nil, err
	}
	return &Faulty{inner: inner, rules: rules, counts: map[string]int{}}, nil
}

// NewFaultyRand wraps inner with seeded random injection: every
// operation boundary fails with probability rate (a generic injected
// error; appends additionally tear a random prefix into a *Durable's
// WAL). The same seed reproduces the same fault sequence.
func NewFaultyRand(inner Backend, seed int64, rate float64) *Faulty {
	return &Faulty{inner: inner, rng: rand.New(rand.NewSource(seed)), rate: rate, counts: map[string]int{}}
}

// next advances the op's call counter and returns the rule firing on
// this call, if any.
func (f *Faulty) next(op string) *faultRule {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.counts[op]++
	n := f.counts[op]
	for i := range f.rules {
		if f.rules[i].matches(op, n) {
			return &f.rules[i]
		}
	}
	if f.rng != nil && f.rng.Float64() < f.rate {
		r := &faultRule{op: op, kind: faultErr}
		if op == "append" {
			r.kind, r.bytes = faultTorn, -1
		}
		return r
	}
	return nil
}

func (f *Faulty) note(err error) error {
	f.mu.Lock()
	f.injected++
	f.lastErr = err.Error()
	f.mu.Unlock()
	return err
}

// Injected returns how many faults have been injected so far.
func (f *Faulty) Injected() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// err renders the rule's injected error for the given op.
func (r *faultRule) err(op string) error {
	if r.kind == faultENOSPC {
		return fmt.Errorf("%w: %s: %w", ErrInjected, op, syscall.ENOSPC)
	}
	return fmt.Errorf("%w: %s", ErrInjected, op)
}

func (f *Faulty) Recover() (*State, error) {
	if r := f.next("recover"); r != nil {
		if r.kind == faultDelay {
			time.Sleep(r.delay)
		} else {
			return nil, f.note(r.err("recover"))
		}
	}
	return f.inner.Recover()
}

func (f *Faulty) Append(rec *Record) error {
	r := f.next("append")
	if r == nil {
		return f.inner.Append(rec)
	}
	if r.kind == faultDelay {
		time.Sleep(r.delay)
		return f.inner.Append(rec)
	}
	cause := r.err("append")
	if d, ok := f.inner.(*Durable); ok {
		// Land a torn prefix in the real WAL and poison the backend the
		// way a genuine write error would. Non-torn faults land nothing
		// but still poison: the WAL tail is in an unknown state.
		torn := 0
		if r.kind == faultTorn {
			torn = r.bytes
			if torn < 0 {
				if buf, err := encodeRecord(nil, rec); err == nil {
					torn = len(buf) / 2
				}
			}
		}
		return f.note(d.appendInjected(rec, torn, cause))
	}
	return f.note(cause)
}

func (f *Faulty) Sync() error {
	if r := f.next("sync"); r != nil {
		if r.kind == faultDelay {
			time.Sleep(r.delay)
		} else {
			cause := r.err("sync")
			if d, ok := f.inner.(*Durable); ok {
				d.injectFailure(cause)
			}
			return f.note(cause)
		}
	}
	return f.inner.Sync()
}

func (f *Faulty) ShouldCompact() bool { return f.inner.ShouldCompact() }

func (f *Faulty) Compact(state *State) error {
	if r := f.next("compact"); r != nil {
		if r.kind == faultDelay {
			time.Sleep(r.delay)
		} else {
			// Fail-soft, like a real snapshot-write failure: the inner
			// backend is untouched and stays healthy, the WAL stays
			// authoritative, the caller retries on a later mutation.
			return f.note(r.err("compact"))
		}
	}
	return f.inner.Compact(state)
}

func (f *Faulty) Close() error {
	if r := f.next("close"); r != nil {
		if r.kind == faultDelay {
			time.Sleep(r.delay)
		} else {
			f.inner.Close()
			return f.note(r.err("close"))
		}
	}
	return f.inner.Close()
}

func (f *Faulty) Healthy() error { return f.inner.Healthy() }

func (f *Faulty) Stats() Stats {
	st := f.inner.Stats()
	st.Mode = "faulty+" + st.Mode
	f.mu.Lock()
	if st.LastError == "" {
		st.LastError = f.lastErr
	}
	f.mu.Unlock()
	return st
}
