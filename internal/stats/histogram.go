// Package stats provides the measurement toolkit for the simulator:
// log-linear latency histograms (HDR-style), counters, rate meters and
// time-series samplers used to produce the paper's tables and figures.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Histogram records int64 values (typically nanoseconds) in log-linear
// buckets: values are grouped by power-of-two magnitude, each magnitude
// split into subBuckets linear buckets, giving a bounded relative error of
// about 1/subBuckets. It holds counts only for the magnitudes between the
// smallest and largest it has recorded (subBuckets counters, 256 bytes,
// each), so an empty histogram holds none.
type Histogram struct {
	// counts[i] is bucket lo+i; lo is a multiple of subBuckets.
	counts []uint64
	lo     int
	total  uint64
	sum    int64
	min    int64
	max    int64
}

// The precision: subBuckets linear buckets per magnitude (~3% error).
const (
	subBuckets = 32
	subShift   = 5 // log2(subBuckets)
)

// NewHistogram creates an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64}
}

// bucketOf returns the bucket holding v >= 0.
func bucketOf(v int64) int {
	if v < subBuckets {
		return int(v)
	}
	// magnitude = index of highest set bit
	mag := 63 - bits.LeadingZeros64(uint64(v))
	// Within this magnitude, which linear sub-bucket?
	sub := int((uint64(v) >> (uint(mag) - subShift)) & (subBuckets - 1))
	return (mag-subShift)*subBuckets + subBuckets + sub
}

// bucketLow returns the lowest value mapping to bucket index i (inverse of
// bucketOf, up to bucket granularity).
func bucketLow(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	i -= subBuckets
	mag := i/subBuckets + subShift
	sub := i % subBuckets
	return (1 << uint(mag)) | int64(sub)<<(uint(mag)-subShift)
}

// Record adds a value.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	b := bucketOf(v)
	if uint(b-h.lo) >= uint(len(h.counts)) {
		lo := b &^ (subBuckets - 1)
		h.widen(lo, lo+subBuckets)
	}
	h.counts[b-h.lo]++
	h.total++
	h.sum = satAdd(h.sum, v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// widen grows counts to cover buckets [lo, hi), both multiples of
// subBuckets. It is kept out of Record so that Record never allocates.
//
//go:noinline
func (h *Histogram) widen(lo, hi int) {
	if n := len(h.counts); n > 0 {
		if lo >= h.lo && hi <= h.lo+n {
			return
		}
		lo, hi = min(lo, h.lo), max(hi, h.lo+n)
	}
	counts := make([]uint64, hi-lo)
	if len(h.counts) > 0 {
		copy(counts[h.lo-lo:], h.counts)
	}
	h.counts, h.lo = counts, lo
}

// satAdd adds two non-negative int64s, saturating at MaxInt64 instead of
// wrapping: a histogram fed MaxInt64-magnitude samples (or simply enough
// of them) must degrade to a pinned Sum/Mean, never to a negative one.
func satAdd(a, b int64) int64 {
	if s := a + b; s >= a {
		return s
	}
	return math.MaxInt64
}

// Count returns how many values were recorded.
func (h *Histogram) Count() uint64 { return h.total } //afvet:allow unused device/submit_test.go pins a device's latency histograms through it

// Sum returns the sum of recorded values.
func (h *Histogram) Sum() int64 { return h.sum } //afvet:allow unused device/submit_test.go pins a device's latency histograms through it

// Mean returns the arithmetic mean, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Min returns the smallest recorded value, or 0 when empty.
func (h *Histogram) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value, or 0 when empty.
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns an estimate of the q-quantile (0 <= q <= 1). The estimate
// is the lower bound of the bucket containing the quantile, which bounds
// relative error by the bucket width (~3%).
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			// The bucket's lower bound can undershoot the smallest sample in
			// it; clamping to the observed min keeps Quantile monotone in q
			// (Quantile(0) reports the exact min) and inside [Min, Max].
			if v := bucketLow(h.lo + i); v > h.min {
				return v
			}
			return h.min
		}
	}
	return h.max
}

// Merge adds all samples of other into h.
func (h *Histogram) Merge(other *Histogram) {
	if n := len(other.counts); n > 0 {
		h.widen(other.lo, other.lo+n)
		base := other.lo - h.lo
		for i, c := range other.counts {
			h.counts[base+i] += c
		}
	}
	h.total += other.total
	h.sum = satAdd(h.sum, other.sum)
	if other.total > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// Reset clears all recorded values; the counts window is kept for reuse.
func (h *Histogram) Reset() { //afvet:allow unused device/device_test.go clears a device's write latency between phases
	clear(h.counts)
	h.total = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
}

// Snapshot summarizes the histogram.
type Snapshot struct {
	Count                          uint64
	Mean, P50, P90, P95, P99, P999 float64
	Min, Max                       float64
}

// SnapshotMillis returns a snapshot with all values converted from
// nanoseconds to milliseconds (the unit the paper reports).
func (h *Histogram) SnapshotMillis() Snapshot {
	ms := func(v int64) float64 { return float64(v) / 1e6 }
	return Snapshot{
		Count: h.total,
		Mean:  h.Mean() / 1e6,
		P50:   ms(h.Quantile(0.50)),
		P90:   ms(h.Quantile(0.90)),
		P95:   ms(h.Quantile(0.95)),
		P99:   ms(h.Quantile(0.99)),
		P999:  ms(h.Quantile(0.999)),
		Min:   ms(h.Min()),
		Max:   ms(h.Max()),
	}
}

// String renders a compact latency summary in milliseconds.
func (h *Histogram) String() string {
	s := h.SnapshotMillis()
	return fmt.Sprintf("n=%d mean=%.3fms p50=%.3fms p99=%.3fms max=%.3fms",
		s.Count, s.Mean, s.P50, s.P99, s.Max)
}

// ExactQuantile computes the exact q-quantile of a raw sample slice; used by
// tests to validate the histogram approximation.
func ExactQuantile(samples []int64, q float64) int64 { //afvet:allow unused stats_test.go checks the histogram's quantiles against it
	if len(samples) == 0 {
		return 0
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q * float64(len(s)))
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// FormatTable renders rows of labeled values as an aligned text table.
func FormatTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, hcol := range header {
		widths[i] = len(hcol)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			for pad := len(cell); pad < widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
