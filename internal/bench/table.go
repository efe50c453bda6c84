// Package bench is the exact experiment harness: one runner per table
// and figure in the paper's evaluation (§6), each reproducing the same
// rows or series the paper reports, in quantities that repeat bit for
// bit — virtual times from the kernel's deterministic cost model
// (kernel.CostModel and the internal/kernel package comment), counts,
// sizes and checksums — so testdata/quick.golden.json can pin them.
// Host wall time is not read here: it is measured by benchmark/
// (interleaved reference, repetitions, gated) and by `go test -bench`.
package bench

import (
	"fmt"
	"strings"
)

// Table is an experiment result: a title, column headers, rows, and
// explanatory notes printed underneath.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends an explanatory note.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := widths[i] - len(c)
			if i == 0 {
				b.WriteString(c + strings.Repeat(" ", pad))
			} else {
				b.WriteString(strings.Repeat(" ", pad) + c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total) + "\n")
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func iv(v int64) string    { return fmt.Sprintf("%d", v) }
func pct(v float64) string { return fmt.Sprintf("%+.1f%%", v*100) }

// rat formats an absolute ratio (no sign — pct is for deltas).
func rat(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
