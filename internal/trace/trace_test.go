package trace

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

var testSpec = Spec{
	Names: []string{"start", "mid", "done"},
	Base:  0,
	Final: 2,
	Segments: []Segment{
		{From: 0, To: 1, Label: "first"},
		{From: 1, To: 2, Label: "second"},
	},
}

func span(t0, t1, t2 sim.Time) *Span {
	sp := &Span{}
	sp.Stamp(0, t0)
	sp.Stamp(1, t1)
	sp.Stamp(2, t2)
	return sp
}

func TestNilSpanSafe(t *testing.T) {
	var sp *Span
	sp.Stamp(1, 5) // must not panic
	c := NewCollector(&testSpec, true)
	c.Add(sp)
	if c.Count() != 0 {
		t.Fatal("nil span must not be counted")
	}
}

func TestCollectorSegmentsTelescope(t *testing.T) {
	c := NewCollector(&testSpec, true)
	spans := []*Span{
		span(10, 30, 100),
		span(5, 50, 60),
		span(100, 100, 100), // zero-width segments are valid
	}
	for _, sp := range spans {
		c.Add(sp)
	}
	if c.Count() != 3 {
		t.Fatalf("count = %d, want 3", c.Count())
	}
	segSum := c.seg[0].Sum() + c.seg[1].Sum()
	if segSum != c.e2e.Sum() {
		t.Fatalf("segment sums %d != end-to-end sum %d", segSum, c.e2e.Sum())
	}
}

func TestCollectorIgnoresIncomplete(t *testing.T) {
	c := NewCollector(&testSpec, true)
	sp := &Span{}
	sp.Stamp(0, 10)
	sp.Stamp(1, 20) // never reached final stage
	c.Add(sp)
	c.Add(nil)
	if c.Count() != 0 {
		t.Fatalf("incomplete spans must be ignored, count = %d", c.Count())
	}
}

func TestDisabledCollectorInert(t *testing.T) {
	c := NewCollector(&testSpec, false)
	if c.cum != nil {
		t.Fatal("collector should be disabled")
	}
	c.Add(span(1, 2, 3))
	if c.Count() != 0 || c.StageMeanMillis(1) != 0 {
		t.Fatal("disabled collector must record nothing")
	}
	if rows := c.Breakdown(); rows != nil {
		t.Fatalf("disabled breakdown = %v, want nil", rows)
	}
	// Merging into or from a disabled collector must not panic.
	c.Merge(NewCollector(&testSpec, true))
	on := NewCollector(&testSpec, true)
	on.Merge(c)
	if on.Count() != 0 {
		t.Fatal("merge from disabled must add nothing")
	}
}

func TestMerge(t *testing.T) {
	a := NewCollector(&testSpec, true)
	b := NewCollector(&testSpec, true)
	a.Add(span(5, 10, 25))
	b.Add(span(5, 30, 65))
	a.Merge(b)
	if a.Count() != 2 {
		t.Fatalf("merged count = %d, want 2", a.Count())
	}
	if got := a.e2e.Sum(); got != 80 {
		t.Fatalf("merged end-to-end sum = %d, want 80", got)
	}
}

func TestBreakdownRowsAndFormats(t *testing.T) {
	c := NewCollector(&testSpec, true)
	c.Add(span(1e6, 2e6, 4e6)) // 1ms + 2ms
	rows := c.Breakdown()
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 2 segments + end-to-end", len(rows))
	}
	if rows[0].Label != "first" || rows[2].Label != "end-to-end" {
		t.Fatalf("unexpected labels: %v, %v", rows[0].Label, rows[2].Label)
	}
	if rows[0].Mean != 1.0 || rows[1].Mean != 2.0 || rows[2].Mean != 3.0 {
		t.Fatalf("means = %v %v %v, want 1 2 3", rows[0].Mean, rows[1].Mean, rows[2].Mean)
	}
	tab := FormatBreakdown(rows)
	for _, want := range []string{"segment", "first", "second", "end-to-end"} {
		if !strings.Contains(tab, want) {
			t.Fatalf("table missing %q:\n%s", want, tab)
		}
	}
	csv := BreakdownCSV(rows)
	if !strings.HasPrefix(csv, "segment,count,p50(ms),p99(ms),max(ms),mean(ms)\n") {
		t.Fatalf("csv header wrong:\n%s", csv)
	}
	if lines := strings.Count(csv, "\n"); lines != 4 {
		t.Fatalf("csv lines = %d, want header + 3 rows", lines)
	}
}

func TestReportFormat(t *testing.T) {
	c := NewCollector(&testSpec, true)
	c.Add(span(0, 1e6, 2e6))
	rep := c.Report()
	if !strings.Contains(rep, "write path stage breakdown (1 samples)") {
		t.Fatalf("report header wrong:\n%s", rep)
	}
	for _, name := range testSpec.Names {
		if !strings.Contains(rep, name) {
			t.Fatalf("report missing stage %q:\n%s", name, rep)
		}
	}
}
