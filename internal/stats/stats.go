// Package stats provides the small numeric and formatting helpers the
// figure generators share: normalisation against a baseline, geometric
// means for cross-workload averages, and aligned text tables.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Normalize divides each value by base. A zero or non-finite base cannot
// produce meaningful ratios, so it is reported as an error instead of
// poisoning every cell downstream (a degenerate run used to panic here
// and kill the whole figure sweep).
func Normalize(vals []float64, base float64) ([]float64, error) {
	if base == 0 || math.IsNaN(base) || math.IsInf(base, 0) {
		return nil, fmt.Errorf("stats: cannot normalise by %v", base)
	}
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = v / base
	}
	return out, nil
}

// GeoMean returns the geometric mean, the conventional cross-benchmark
// average for normalised metrics. Values that are not finite and positive
// carry no usable magnitude (a degenerate cell from a zero baseline), so
// they are skipped rather than aborting the average; if nothing usable
// remains the result is NaN. The empty slice stays 0 for backward
// compatibility.
func GeoMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum, n := 0.0, 0
	for _, v := range vals {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		sum += math.Log(v)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(sum / float64(n))
}

// Mean returns the arithmetic mean.
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// Median returns the middle of vals (the mean of the middle two for an
// even count), or 0 for none. vals is not modified.
func Median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return median(sorted(vals))
}

// Quartiles returns the first and third quartiles of vals as Tukey's
// hinges: the medians of the lower and upper halves, where an odd count's
// middle value belongs to both. Q3 - Q1 is the interquartile spread; one
// value gives (v, v) and none (0, 0). vals is not modified.
func Quartiles(vals []float64) (q1, q3 float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	s := sorted(vals)
	half := (len(s) + 1) / 2
	return median(s[:half]), median(s[len(s)-half:])
}

// sorted returns an ascending copy of vals.
func sorted(vals []float64) []float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	return s
}

// median returns the middle of ascending, non-empty s.
func median(s []float64) float64 {
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// Table renders an aligned text table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
	Notes   []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// AddNote appends a footnote line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Rows returns the row data (for tests and machine output).
func (t *Table) Rows() [][]string { return t.rows }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	rule := make([]string, len(t.Headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, r := range t.rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// F formats a ratio-style float with three decimals; degenerate values
// (NaN, Inf — e.g. a ratio against a zero baseline) render as "n/a" so
// one bad cell does not wreck a table.
func F(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", v)
}

// F2 formats with two decimals; degenerate values render as "n/a".
func F2(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", v)
}

// Seconds formats nanoseconds as seconds with adaptive precision.
func Seconds(ns float64) string {
	s := ns / 1e9
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0f s", s)
	case s >= 1:
		return fmt.Sprintf("%.2f s", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.2f ms", s*1e3)
	default:
		return fmt.Sprintf("%.1f us", s*1e6)
	}
}

// Bytes formats byte counts in binary units.
func Bytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// tableJSON is the serialised form of a Table.
type tableJSON struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// MarshalJSON serialises the table for machine consumption
// (benchfigs -format json).
func (t *Table) MarshalJSON() ([]byte, error) {
	return json.Marshal(tableJSON{
		Title: t.Title, Headers: t.Headers, Rows: t.rows, Notes: t.Notes,
	})
}
