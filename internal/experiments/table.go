package experiments

import (
	"fmt"
	"slices"
	"strings"
)

// Table is a formatted experiment result: the rows/series the paper's
// corresponding table or figure reports.
type Table struct {
	ID      string // experiment id, e.g. "fig6"
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	// Raw is preformatted supplementary output rendered after the rows —
	// the ASCII rendition of the figure itself (queue traces, goodput
	// phases, CDFs).
	Raw string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a footnote.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if t.Raw != "" {
		b.WriteByte('\n')
		b.WriteString(t.Raw)
	}
	return b.String()
}

// pivot is the first of the two table shapes: x labels down, series labels
// across, one formatted value per (x, series) point.
func pivot(id, title, xName string, xs, series []string, val func(x, s int) string) *Table {
	t := &Table{ID: id, Title: title, Columns: append([]string{xName}, series...)}
	for x, label := range xs {
		row := []string{label}
		for s := range series {
			row = append(row, val(x, s))
		}
		t.AddRow(row...)
	}
	return t
}

// column is one named value read off a run.
type column struct {
	name string
	get  func(CellResult) string
}

// records is the second table shape: one row per grid point — its row label
// and, when keys names two cells, its column label — followed by the chosen
// columns of that point's first-seed run.
func records(id, title string, keys []string, cols []column, g *grid) *Table {
	t := &Table{ID: id, Title: title, Columns: slices.Clone(keys)}
	for _, col := range cols {
		t.Columns = append(t.Columns, col.name)
	}
	for r, rl := range g.rows {
		for c, cl := range g.cols {
			row := []string{rl, cl}[:len(keys)]
			for _, col := range cols {
				row = append(row, col.get(g.first(r, c)))
			}
			t.AddRow(row...)
		}
	}
	return t
}

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f3 formats a float with three decimals.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// f1 formats a float with one decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// ratio guards against division by zero in normalizations.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
