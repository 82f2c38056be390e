// Package engine is the pluggable streaming executor layer: every join
// algorithm in the library — Minesweeper itself and the comparison
// engines — runs behind one uniform interface, so limits, context
// cancellation and deadline abort behave identically regardless of which
// algorithm evaluates the query.
//
// The contract every registered engine obeys:
//
//   - Run evaluates the prepared problem and calls emit once per output
//     tuple, in GAO-lexicographic order, with a fresh slice the callback
//     owns: it may retain it or write to it.
//   - emit returning false stops the enumeration; Run then returns nil.
//   - A cancelled or expired context stops the run with ctx.Err().
//   - stats may be nil; when set, the run's cost counters accumulate
//     into it (Outputs counts emitted tuples).
//   - Run attaches per-run state to the problem's trees, so concurrent
//     runs must operate on Problem.Snapshot copies.
package engine

import (
	"context"
	"fmt"
	"sync"

	"minesweeper/internal/certificate"
	"minesweeper/internal/core"
)

// RunFunc evaluates a prepared join problem, streaming output tuples
// through emit.
type RunFunc func(ctx context.Context, p *core.Problem, stats *certificate.Stats, emit func([]int) bool) error

// Engine is a registered join algorithm.
type Engine struct {
	// Name is the registry key (also the CLI spelling).
	Name string
	// IndexOnly reports that Run reads the problem only through its
	// atoms' index views, with no per-run Ω(N) rebuild, so range morsels
	// (Parallel) split its work instead of repeating it.
	IndexOnly bool
	// Run evaluates the problem under the package contract above.
	Run RunFunc
}

var (
	mu       sync.RWMutex
	registry = map[string]Engine{}
)

// Register adds an engine to the registry. Registering a duplicate name
// panics: engine names are part of the public dispatch surface.
func Register(e Engine) {
	if e.Name == "" || e.Run == nil {
		panic("engine: Register needs a name and a Run function")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[e.Name]; dup {
		panic(fmt.Sprintf("engine: duplicate registration of %q", e.Name))
	}
	registry[e.Name] = e
}

// Lookup returns the engine registered under name.
func Lookup(name string) (Engine, bool) {
	mu.RLock()
	defer mu.RUnlock()
	e, ok := registry[name]
	return e, ok
}
