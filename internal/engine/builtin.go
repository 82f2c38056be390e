package engine

import (
	"context"

	"minesweeper/internal/baseline"
	"minesweeper/internal/certificate"
	"minesweeper/internal/core"
)

// The five built-in engines. Minesweeper and Leapfrog walk the
// search-tree indexes directly, so they are IndexOnly. NPRR builds hash
// tries from the indexes' tuples on every run; Yannakakis and the hash
// plan work on tuple lists reconstructed from the indexes via
// Problem.Specs (they are Ω(N) per run regardless, so the
// materialization does not change their asymptotics, and only their
// emission streams).
func init() {
	Register(Engine{
		Name:      "minesweeper",
		IndexOnly: true,
		Run:       core.MinesweeperStreamContext,
	})
	Register(Engine{
		Name:      "leapfrog",
		IndexOnly: true,
		Run:       baseline.LeapfrogStream,
	})
	Register(Engine{
		Name: "nprr",
		Run:  baseline.NPRRStream,
	})
	Register(Engine{
		Name: "yannakakis",
		Run: func(ctx context.Context, p *core.Problem, stats *certificate.Stats, emit func([]int) bool) error {
			return baseline.YannakakisStream(ctx, p.GAO, p.Specs(), stats, emit)
		},
	})
	Register(Engine{
		Name: "hashplan",
		Run: func(ctx context.Context, p *core.Problem, stats *certificate.Stats, emit func([]int) bool) error {
			return baseline.LeftDeepHashJoinStream(ctx, p.GAO, p.Specs(), stats, emit)
		},
	})
}
