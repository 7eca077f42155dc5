package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"ecnsharp/internal/harness"
)

// grid is what every simulated figure is: rows × cols run configurations,
// each pooled over the scale's seeds and addressed by (row, col). The labels
// are the ones the figure's tables print; together with the scheme they also
// name each run in -progress and timeout messages.
type grid struct {
	rows, cols []string
	cfgs       []RunConfig
	names      []string
	pools      []LoadPool
	firsts     []CellResult
}

// oneCol is the column axis of a grid that only varies along its rows.
var oneCol = []string{""}

// newGrid builds the configuration of every grid point from mk.
func newGrid(rows, cols []string, mk func(r, c int) RunConfig) *grid {
	g := &grid{rows: rows, cols: cols}
	for r, row := range rows {
		for c, col := range cols {
			cfg := mk(r, c)
			name := strings.TrimSpace(row + " " + col)
			if !strings.Contains(name, cfg.Scheme.Label) {
				name = cfg.Scheme.Label + " " + name
			}
			g.cfgs = append(g.cfgs, cfg)
			g.names = append(g.names, name)
		}
	}
	return g
}

// runGrids runs every point of the given grids once per seed of sc, as the
// cells of one RunCells batch, so a figure made of several grids still fills
// the worker pool once, and pools each point's cells in seed order. Runs are
// labelled by grid point and seed, in -progress lines and in the panic that
// a failed run aborts with.
func runGrids(sc Scale, grids ...*grid) {
	var cells []Cell
	var labels []string
	for _, g := range grids {
		for i, cfg := range g.cfgs {
			cfg.defaults()
			for _, seed := range sc.Seeds {
				cfg.Seed = seed
				cells = append(cells, Cell{runConfig: cfg})
				labels = append(labels, fmt.Sprintf("%s seed=%d", g.names[i], seed))
			}
		}
	}
	opts := sc.harnessOptions()
	if sc.Progress != nil {
		opts.OnDone = func(p harness.Progress) {
			p.Label = labels[p.Index]
			sc.Progress(p)
		}
	}
	out, _ := RunCells(context.Background(), cells, nil, nil, nil, opts)
	res := make([]CellResult, len(out))
	for i, o := range out {
		if o.Err != nil {
			panic(fmt.Sprintf("experiments: %s: %v", labels[i], errors.Unwrap(o.Err)))
		}
		res[i] = o.Result
	}
	for _, g := range grids {
		for _, cfg := range g.cfgs {
			seeds := res[:len(sc.Seeds)]
			res = res[len(seeds):]
			g.pools = append(g.pools, PoolLoad(cfg.Traffic.Poisson.Load, seeds))
			g.firsts = append(g.firsts, seeds[0])
		}
	}
}

// at returns the seed-pooled result of grid point (r, c).
func (g *grid) at(r, c int) LoadPool { return g.pools[r*len(g.cols)+c] }

// first returns the first seed's result of grid point (r, c): what a
// single-seed view reads, its sampled series included.
func (g *grid) first(r, c int) CellResult { return g.firsts[r*len(g.cols)+c] }

// axis formats the values along one grid axis into its labels.
func axis[T any](xs []T, f func(T) string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}
