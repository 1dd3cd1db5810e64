package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// Property tests hardening the measurement substrate: every figure and
// benchmark metric flows through Histogram, so silent wrap-around or
// bucket-edge bugs would corrupt results without failing any figure test.

// TestHistogramSingleValueProperty: a histogram holding exactly one sample
// must report that sample (to bucket precision) from every accessor.
func TestHistogramSingleValueProperty(t *testing.T) {
	f := func(raw int64) bool {
		v := raw
		if v < 0 {
			v = 0 // Record clamps; mirror it for the expectations
		}
		h := NewHistogram()
		h.Record(raw)
		if h.Count() != 1 || h.Sum() != v || h.Min() != v || h.Max() != v {
			return false
		}
		if h.Mean() != float64(v) {
			return false
		}
		// With one sample the min-clamp makes every quantile exact.
		for _, q := range []float64{0, 0.5, 0.999, 1} {
			if got := h.Quantile(q); got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramSaturatedBuckets: MaxInt64-magnitude samples land in the
// top bucket without panicking, and the running sum saturates instead of
// wrapping negative.
func TestHistogramSaturatedBuckets(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 3; i++ {
		h.Record(math.MaxInt64)
	}
	if h.Sum() != math.MaxInt64 {
		t.Fatalf("sum = %d, want saturation at MaxInt64", h.Sum())
	}
	if h.Mean() < 0 {
		t.Fatalf("mean went negative: %v", h.Mean())
	}
	if h.Max() != math.MaxInt64 || h.Quantile(1) != math.MaxInt64 {
		t.Fatalf("max = %d, q1 = %d", h.Max(), h.Quantile(1))
	}
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	// Mixed with small values the quantile walk must still terminate in
	// the top bucket.
	h.Record(1)
	if q := h.Quantile(0.999); q <= 1 {
		t.Fatalf("q999 = %d, want top bucket", q)
	}
}

// TestHistogramMergeEquivalenceProperty: merging two histograms is
// indistinguishable from recording both sample sets into one.
func TestHistogramMergeEquivalenceProperty(t *testing.T) {
	f := func(xs, ys []int64) bool {
		a, b, both := NewHistogram(), NewHistogram(), NewHistogram()
		for _, v := range xs {
			a.Record(v)
			both.Record(v)
		}
		for _, v := range ys {
			b.Record(v)
			both.Record(v)
		}
		a.Merge(b)
		if a.Count() != both.Count() || a.Sum() != both.Sum() ||
			a.Min() != both.Min() || a.Max() != both.Max() {
			return false
		}
		for _, q := range []float64{0.25, 0.5, 0.9, 0.99} {
			if a.Quantile(q) != both.Quantile(q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramQuantileMonotoneProperty: quantiles never decrease as q
// grows, and always stay inside [min, max].
func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(xs []int64) bool {
		if len(xs) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range xs {
			h.Record(v)
		}
		qs := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}
		prev := int64(math.MinInt64)
		for _, q := range qs {
			got := h.Quantile(q)
			if got < prev {
				return false
			}
			if got > h.Max() || got < h.Min() {
				return false
			}
			prev = got
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
