// Package experiments regenerates every table and worked analysis of the
// GeoProof paper from the library's own components, printing
// paper-reported values side by side with this implementation's: Tables
// I-III (E1-E3), the §V-B setup layout and overhead (E4), §V-C detection
// (E5), the relay attack (E6), the timing budget (E7), distance bounding
// (E8), geolocation baselines (E9) and ablations (E10). Every table is a
// pure function of its seed; cmd/geobench renders them. Performance is
// measured by the bench/ harness, not here.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render pretty-prints the table with aligned columns.
func (t Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders to a string.
func (t Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

func ms(d float64) string  { return fmt.Sprintf("%.3f ms", d) }
func km(d float64) string  { return fmt.Sprintf("%.0f km", d) }
func pct(f float64) string { return fmt.Sprintf("%.2f%%", f*100) }
