// Package trace records per-op latency spans across a multi-stage
// pipeline. An op carries a pooled Span that is stamped with the virtual
// time at each stage it passes; a Collector aggregates completed spans
// into per-stage and per-segment histograms, from which the paper's §3
// style latency-breakdown attribution (which stage eats the time) is
// derived. Recording never advances simulated time, so tracing is
// observation-only: enabling it cannot change scheduling or results.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
)

// MaxStages bounds the stages a Span can hold; Spans embed the array so
// they can live in free lists without per-op allocation.
const MaxStages = 16

// Span is one op's stage timestamps. The zero value is ready for use and
// a Span is reusable after Reset; all methods are nil-safe so call sites
// on the hot path need no sampling checks beyond the nil test they
// already do implicitly.
type Span struct {
	t [MaxStages]sim.Time
}

// Stamp records the current time for a stage. No-op on a nil Span, so
// unsampled ops (tr == nil) cost only the nil check.
func (s *Span) Stamp(stage int, now sim.Time) {
	if s == nil {
		return
	}
	s.t[stage] = now
}

// Segment names one hop of the pipeline's critical path: the latency
// between two stages. A chain of segments where each From equals the
// previous To telescopes — the segment deltas of one span sum exactly to
// its end-to-end latency.
type Segment struct {
	From, To int
	Label    string
}

// Spec describes a pipeline for collection: stage names (indexed by stage
// constant), the base and final stamps bounding the span, and the
// critical-path segments to attribute latency to.
type Spec struct {
	Names    []string
	Base     int
	Final    int
	Segments []Segment
}

// Collector aggregates completed Spans. A disabled collector (enabled ==
// false at construction) allocates no histograms and ignores Add, so the
// tracing-off path stays allocation-free.
type Collector struct {
	spec  *Spec
	cum   []*stats.Histogram // per stage: time since Base
	seg   []*stats.Histogram // per segment: To - From
	e2e   *stats.Histogram   // Final - Base
	count uint64
}

// NewCollector builds a collector for spec. When enabled is false the
// collector is inert: Add, Merge and the accessors are safe but record
// and report nothing.
func NewCollector(spec *Spec, enabled bool) *Collector {
	c := &Collector{spec: spec}
	if !enabled {
		return c
	}
	c.cum = make([]*stats.Histogram, len(spec.Names))
	for i := range c.cum {
		c.cum[i] = stats.NewHistogram()
	}
	c.seg = make([]*stats.Histogram, len(spec.Segments))
	for i := range c.seg {
		c.seg[i] = stats.NewHistogram()
	}
	c.e2e = stats.NewHistogram()
	return c
}

// Add folds one completed span in. Spans that never reached the final
// stage are ignored (the op never finished: crashed generation, still in
// flight). Stage stamps earlier than the base stamp (or absent) are
// skipped rather than recorded as garbage.
func (c *Collector) Add(sp *Span) {
	if c.cum == nil || sp == nil {
		return
	}
	if sp.t[c.spec.Final] == 0 {
		return
	}
	base := sp.t[c.spec.Base]
	for i := range c.spec.Names {
		if sp.t[i] >= base {
			c.cum[i].Record(int64(sp.t[i] - base))
		}
	}
	for i, s := range c.spec.Segments {
		from, to := sp.t[s.From], sp.t[s.To]
		if from > 0 && to >= from {
			c.seg[i].Record(int64(to - from))
		}
	}
	c.e2e.Record(int64(sp.t[c.spec.Final] - base))
	c.count++
}

// Count returns how many spans were folded in.
func (c *Collector) Count() uint64 { return c.count }

// StageMeanMillis returns the mean time from base to the given stage, in
// milliseconds (0 when disabled or empty).
func (c *Collector) StageMeanMillis(stage int) float64 {
	if c.cum == nil {
		return 0
	}
	return c.cum[stage].Mean() / 1e6
}

// Merge folds another collector's samples into c. Both must share the
// spec shape; disabled collectors merge as empty.
func (c *Collector) Merge(other *Collector) {
	if c.cum == nil || other == nil || other.cum == nil {
		return
	}
	for i := range c.cum {
		c.cum[i].Merge(other.cum[i])
	}
	for i := range c.seg {
		c.seg[i].Merge(other.seg[i])
	}
	c.e2e.Merge(other.e2e)
	c.count += other.count
}

// Report renders the classic cumulative view: mean time from base to each
// stage, with the delta from the previous stage alongside.
func (c *Collector) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "write path stage breakdown (%d samples)\n", c.count)
	prev := 0.0
	for i, name := range c.spec.Names {
		cum := c.StageMeanMillis(i)
		fmt.Fprintf(&b, "  %-18s cum %8.3f ms   +%8.3f ms\n", name, cum, cum-prev)
		prev = cum
	}
	return b.String()
}

// BreakdownRow is one line of the latency-attribution table, all
// latencies in milliseconds.
type BreakdownRow struct {
	Label               string
	Count               uint64
	P50, P99, Max, Mean float64
}

// RowFromHistogram summarizes any latency histogram as a breakdown row;
// used to report stages outside the span (post-ack apply, completion
// queueing) alongside the critical-path segments.
func RowFromHistogram(label string, h *stats.Histogram) BreakdownRow {
	s := h.SnapshotMillis()
	return BreakdownRow{Label: label, Count: s.Count, P50: s.P50, P99: s.P99, Max: s.Max, Mean: s.Mean}
}

// Breakdown returns one row per critical-path segment in spec order,
// followed by an "end-to-end" row. Because the segments telescope, the
// per-span segment deltas sum exactly to end-to-end, so the segment means
// sum (up to rounding) to the end-to-end mean; quantiles sum only
// approximately.
func (c *Collector) Breakdown() []BreakdownRow {
	if c.cum == nil {
		return nil
	}
	rows := make([]BreakdownRow, 0, len(c.spec.Segments)+1)
	for i, s := range c.spec.Segments {
		rows = append(rows, RowFromHistogram(s.Label, c.seg[i]))
	}
	rows = append(rows, RowFromHistogram("end-to-end", c.e2e))
	return rows
}

// BreakdownHeader is the column layout shared by the table and CSV
// renderings of a breakdown.
var BreakdownHeader = []string{"segment", "count", "p50(ms)", "p99(ms)", "max(ms)", "mean(ms)"}

// Cells formats the row for table/CSV output.
func (r BreakdownRow) Cells() []string {
	return []string{
		r.Label,
		fmt.Sprintf("%d", r.Count),
		fmt.Sprintf("%.3f", r.P50),
		fmt.Sprintf("%.3f", r.P99),
		fmt.Sprintf("%.3f", r.Max),
		fmt.Sprintf("%.3f", r.Mean),
	}
}

// FormatBreakdown renders rows as an aligned text table.
func FormatBreakdown(rows []BreakdownRow) string {
	cells := make([][]string, len(rows))
	for i, r := range rows {
		cells[i] = r.Cells()
	}
	return stats.FormatTable(BreakdownHeader, cells)
}

// BreakdownCSV renders rows as CSV with a header line.
func BreakdownCSV(rows []BreakdownRow) string {
	var b strings.Builder
	b.WriteString(strings.Join(BreakdownHeader, ","))
	b.WriteByte('\n')
	for _, r := range rows {
		b.WriteString(strings.Join(r.Cells(), ","))
		b.WriteByte('\n')
	}
	return b.String()
}
