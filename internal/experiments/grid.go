package experiments

import "strings"

// grid is what every simulated figure is: rows × cols run configurations,
// each pooled over the scale's seeds and addressed by (row, col). The labels
// are the ones the figure's tables print; together with the scheme they also
// name each run in -progress and timeout messages.
type grid struct {
	rows, cols []string
	cfgs       []RunConfig
	names      []string
	res        []RunResult
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

// runGrids executes every point of the given grids as one runAll batch, so a
// figure made of several grids still fills the worker pool once.
func runGrids(sc Scale, grids ...*grid) {
	var cfgs []RunConfig
	var names []string
	for _, g := range grids {
		cfgs = append(cfgs, g.cfgs...)
		names = append(names, g.names...)
	}
	res := runAll(sc, cfgs, names)
	for _, g := range grids {
		g.res, res = res[:len(g.cfgs)], res[len(g.cfgs):]
	}
}

// at returns the seed-pooled result of grid point (r, c).
func (g *grid) at(r, c int) RunResult { return g.res[r*len(g.cols)+c] }

// first returns the unpooled first-seed run of grid point (r, c): what a
// single-seed view reads, goodput series included (MergeRuns pools none).
func (g *grid) first(r, c int) RunResult { return g.at(r, c).PerSeed[0] }

// axis formats the values along one grid axis into its labels.
func axis[T any](xs []T, f func(T) string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}
