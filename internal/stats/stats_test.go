package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramMeanMax(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Percentile(99) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for _, v := range []float64{1, 2, 3, 4} {
		h.Record(v)
	}
	if h.Mean() != 2.5 {
		t.Errorf("Mean = %v", h.Mean())
	}
	if h.Count() != 4 {
		t.Errorf("Count = %d", h.Count())
	}
}

func TestHistogramPercentile(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Record(float64(i))
	}
	if got := h.Percentile(0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := h.Percentile(100); got != 100 {
		t.Errorf("p100 = %v", got)
	}
	p50 := h.Percentile(50)
	if p50 < 50 || p50 > 51 {
		t.Errorf("p50 = %v", p50)
	}
	p99 := h.Percentile(99)
	if p99 < 99 || p99 > 100 {
		t.Errorf("p99 = %v", p99)
	}
}

func TestHistogramPercentileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		var h Histogram
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			h.Record(v)
		}
		if h.Count() == 0 {
			return true
		}
		ps := []float64{0, 25, 50, 75, 90, 99, 100}
		vals := make([]float64, len(ps))
		for i, p := range ps {
			vals[i] = h.Percentile(p)
		}
		return sort.Float64sAreSorted(vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramRecordAfterPercentile(t *testing.T) {
	var h Histogram
	h.Record(5)
	_ = h.Percentile(50)
	h.Record(1) // must re-sort lazily
	if got := h.Percentile(0); got != 1 {
		t.Errorf("p0 after late record = %v, want 1", got)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("demo", "name", "value")
	tbl.AddRow("alpha", 1.5)
	tbl.AddRow("beta", 2)
	s := tbl.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "alpha") {
		t.Errorf("String() missing content:\n%s", s)
	}
	csv := tbl.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want 3:\n%s", len(lines), csv)
	}
	if lines[0] != "name,value" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "alpha,1.5" {
		t.Errorf("row 1 = %q", lines[1])
	}
	if lines[2] != "beta,2" {
		t.Errorf("row 2 = %q", lines[2])
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tbl := NewTable("", "a", "b")
	tbl.AddRow("x,y", `say "hi"`)
	csv := tbl.CSV()
	if !strings.Contains(csv, `"x,y"`) {
		t.Errorf("comma cell not quoted: %q", csv)
	}
	if !strings.Contains(csv, `"say ""hi"""`) {
		t.Errorf("quote cell not escaped: %q", csv)
	}
}

// TestRowCSVReassemblesCSV pins the contract the sweep service's event
// stream depends on: HeaderCSV + RowCSV(i) joined by newlines is CSV()
// byte-for-byte, quoting included, so a replayed stream reassembles the
// report exactly.
func TestRowCSVReassemblesCSV(t *testing.T) {
	tbl := NewTable("", "a", "b")
	tbl.AddRow("plain", 1.5)
	tbl.AddRow("x,y", `say "hi"`)
	tbl.AddRow("multi\nline", 2)
	var b strings.Builder
	b.WriteString(tbl.HeaderCSV() + "\n")
	for i := 0; i < tbl.NumRows(); i++ {
		b.WriteString(tbl.RowCSV(i) + "\n")
	}
	if got, want := b.String(), tbl.CSV(); got != want {
		t.Errorf("reassembly != CSV():\n--- reassembly ---\n%s--- CSV ---\n%s", got, want)
	}
	if strings.ContainsRune(tbl.HeaderCSV(), '\n') {
		t.Errorf("HeaderCSV carries a newline: %q", tbl.HeaderCSV())
	}
}

func TestTableAccessors(t *testing.T) {
	tbl := NewTable("t", "x", "y")
	tbl.AddRow(1, 2)
	if tbl.NumRows() != 1 {
		t.Errorf("NumRows = %d", tbl.NumRows())
	}
	if got := tbl.RowCSV(0); got != "1,2" {
		t.Errorf("RowCSV = %q", got)
	}
}

func TestTableRowArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong arity")
		}
	}()
	NewTable("t", "only").AddRow(1, 2)
}

func TestFloatFormatting(t *testing.T) {
	tbl := NewTable("", "v")
	tbl.AddRow(3.0)
	tbl.AddRow(0.123456)
	tbl.AddRow(float32(1.5))
	if tbl.RowCSV(0) != "3" {
		t.Errorf("integral float = %q", tbl.RowCSV(0))
	}
	if tbl.RowCSV(1) != "0.1235" {
		t.Errorf("4 sig figs = %q", tbl.RowCSV(1))
	}
	if tbl.RowCSV(2) != "1.5" {
		t.Errorf("float32 = %q", tbl.RowCSV(2))
	}
}

func TestHistogramEmptyGuards(t *testing.T) {
	var h Histogram
	// NaN would poison every downstream CSV cell; the empty-histogram
	// contract is "0, not NaN" across all accessors.
	for name, got := range map[string]float64{
		"Mean":       h.Mean(),
		"Percentile": h.Percentile(99),
	} {
		if got != 0 {
			t.Errorf("empty %s = %v, want 0", name, got)
		}
	}
	qs := h.Quantiles([]float64{0, 50, 100})
	for i, v := range qs {
		if v != 0 {
			t.Errorf("empty Quantiles[%d] = %v, want 0", i, v)
		}
	}
	if len(qs) != 3 {
		t.Errorf("Quantiles length = %d, want 3", len(qs))
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Record(float64(i))
	}
	ps := []float64{0, 25, 50, 75, 100}
	got := h.Quantiles(ps)
	for i, p := range ps {
		if want := h.Percentile(p); got[i] != want {
			t.Errorf("Quantiles[%v] = %v, want Percentile %v", p, got[i], want)
		}
	}
	if got[0] != 1 || got[4] != 100 {
		t.Errorf("extremes = %v, %v; want 1, 100", got[0], got[4])
	}
	if len(h.Quantiles(nil)) != 0 {
		t.Error("Quantiles(nil) should be empty")
	}
}
