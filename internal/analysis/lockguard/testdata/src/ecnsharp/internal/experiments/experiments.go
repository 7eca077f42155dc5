// Package experiments is a miniature stand-in for the real experiment
// package: the lockguard analyzer recognizes Cell by its qualified name
// (ecnsharp/internal/experiments.Cell) and RunCells by its package.
package experiments

// Cell is one experiment grid cell.
type Cell struct {
	Load float64
}

// Run executes the cell's simulation to completion.
func (c *Cell) Run() {}

// RunCells executes every cell's simulation to completion.
func RunCells(cells []Cell) {}
