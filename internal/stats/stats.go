// Package stats provides the histograms and tabular/CSV rendering
// used by the experiment harness. It deliberately mirrors what the paper's
// measurement scripts produce: one CSV per experiment, one row per
// (workload, configuration) pair.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Histogram collects float64 samples and reports order statistics.
// It stores raw samples; the simulator's sample counts are modest
// (latencies of discrete events, not per-access data).
type Histogram struct {
	samples []float64
	sorted  bool
}

// Record adds a sample.
func (h *Histogram) Record(v float64) {
	h.samples = append(h.samples, v)
	h.sorted = false
}

// Grow makes room for n more samples, so the next n Records do not
// reallocate.
func (h *Histogram) Grow(n int) { h.samples = slices.Grow(h.samples, n) }

// Count returns the number of recorded samples.
func (h *Histogram) Count() int { return len(h.samples) }

// Mean returns the arithmetic mean, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range h.samples {
		sum += v
	}
	return sum / float64(len(h.samples))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank interpolation, or 0 for an empty histogram.
func (h *Histogram) Percentile(p float64) float64 {
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
	if p <= 0 {
		return h.samples[0]
	}
	if p >= 100 {
		return h.samples[len(h.samples)-1]
	}
	rank := p / 100 * float64(len(h.samples)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return h.samples[lo]
	}
	frac := rank - float64(lo)
	return h.samples[lo]*(1-frac) + h.samples[hi]*frac
}

// Quantiles returns the percentile for each p in ps (0 <= p <= 100) in
// one pass: the sample slice is sorted at most once regardless of how
// many quantiles are requested. An empty histogram yields all zeros,
// matching Percentile's empty-histogram guard.
func (h *Histogram) Quantiles(ps []float64) []float64 {
	out := make([]float64, len(ps))
	if len(h.samples) == 0 {
		return out
	}
	for i, p := range ps {
		out[i] = h.Percentile(p)
	}
	return out
}

// Table accumulates rows of named columns and renders them as aligned text
// or CSV. Column order is fixed by the header given at construction.
type Table struct {
	Title  string
	header []string
	rows   [][]string
}

// NewTable creates a table with the given title and column names.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, header: append([]string(nil), columns...)}
}

// AddRow appends a row. Cells are rendered with %v; float64 cells are
// formatted with 4 significant digits.
func (t *Table) AddRow(cells ...interface{}) {
	if len(cells) != len(t.header) {
		panic(fmt.Sprintf("stats: row has %d cells, table has %d columns",
			len(cells), len(t.header)))
	}
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = formatCell(c)
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

func formatCell(c interface{}) string {
	switch v := c.(type) {
	case float64:
		return trimFloat(v)
	case float32:
		return trimFloat(float64(v))
	default:
		return fmt.Sprintf("%v", c)
	}
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// CSV renders the table as RFC-4180-ish CSV (header row first).
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.header)
	for _, row := range t.rows {
		writeCSVRow(&b, row)
	}
	return b.String()
}

// HeaderCSV renders the header row exactly as CSV() does, without the
// trailing newline. The sweep service streams it in its event journal so
// a replayed stream reassembles the report byte-for-byte.
func (t *Table) HeaderCSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.header)
	return strings.TrimSuffix(b.String(), "\n")
}

// RowCSV renders data row i exactly as CSV() does, without the trailing
// newline. CSV() == HeaderCSV() + "\n" + RowCSV(0) + "\n" + ... by
// construction; TestRowCSVReassemblesCSV pins it.
func (t *Table) RowCSV(i int) string {
	var b strings.Builder
	writeCSVRow(&b, t.rows[i])
	return strings.TrimSuffix(b.String(), "\n")
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			b.WriteByte('"')
			b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
			b.WriteByte('"')
		} else {
			b.WriteString(c)
		}
	}
	b.WriteByte('\n')
}

// String renders the table as padded, human-readable text.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString("== " + t.Title + " ==\n")
	}
	writePadded(&b, t.header, widths)
	for _, row := range t.rows {
		writePadded(&b, row, widths)
	}
	return b.String()
}

func writePadded(b *strings.Builder, cells []string, widths []int) {
	for i, c := range cells {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(c)
		for pad := widths[i] - len(c); pad > 0; pad-- {
			b.WriteByte(' ')
		}
	}
	b.WriteByte('\n')
}
