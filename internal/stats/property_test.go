package stats

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
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

// refHist is a reference histogram with one counter for every bucket,
// allocated up front. The windowed Histogram must agree with it bucket for
// bucket and quantile for quantile.
type refHist struct {
	counts           [64 * subBuckets]uint64
	total            uint64
	sum, lowest, top int64
}

func newRefHist() *refHist { return &refHist{lowest: math.MaxInt64} }

func (r *refHist) record(v int64) {
	if v < 0 {
		v = 0
	}
	r.counts[bucketOf(v)]++
	r.total++
	r.sum = satAdd(r.sum, v)
	r.lowest = min(r.lowest, v)
	r.top = max(r.top, v)
}

func (r *refHist) quantile(q float64) int64 {
	if r.total == 0 {
		return 0
	}
	if q <= 0 {
		return r.lowest
	}
	if q >= 1 {
		return r.top
	}
	rank := min(uint64(q*float64(r.total)), r.total-1)
	var seen uint64
	for i, c := range r.counts {
		if seen += c; seen > rank {
			return max(bucketLow(i), r.lowest)
		}
	}
	return r.top
}

// sameAsRef reports the first way h differs from r, or "".
func sameAsRef(h *Histogram, r *refHist) string {
	if h.lo%subBuckets != 0 || len(h.counts)%subBuckets != 0 {
		return fmt.Sprintf("window [%d, +%d) not whole magnitudes", h.lo, len(h.counts))
	}
	for b, want := range r.counts {
		var got uint64
		if i := b - h.lo; i >= 0 && i < len(h.counts) {
			got = h.counts[i]
		}
		if got != want {
			return fmt.Sprintf("bucket %d holds %d, want %d", b, got, want)
		}
	}
	if h.Count() != r.total || h.Sum() != r.sum || h.Max() != r.top ||
		(r.total > 0 && h.Min() != r.lowest) {
		return fmt.Sprintf("count/sum/min/max %d/%d/%d/%d, want %d/%d/%d/%d",
			h.Count(), h.Sum(), h.Min(), h.Max(), r.total, r.sum, r.lowest, r.top)
	}
	for _, q := range []float64{0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
		if got, want := h.Quantile(q), r.quantile(q); got != want {
			return fmt.Sprintf("Quantile(%v) = %d, want %d", q, got, want)
		}
	}
	return ""
}

// edgeValues are the bucket and magnitude edges: 0, negatives (clamped),
// the last exact value and the first log-linear one, 2^k±1 and MaxInt64.
func edgeValues() []int64 {
	vs := []int64{0, -1, math.MinInt64, 31, 32, math.MaxInt64}
	for k := 1; k < 63; k++ {
		vs = append(vs, 1<<k-1, 1<<k, 1<<k+1)
	}
	return vs
}

// randomValues draws n values whose magnitudes spread over the whole
// int64 range.
func randomValues(r *rng.Rand, n int) []int64 {
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = int64(r.Uint64() >> 1 >> r.Intn(64))
	}
	return vs
}

func TestHistogramWindowMatchesFullArray(t *testing.T) {
	r := rng.New(7)
	sets := [][]int64{edgeValues(), {math.MaxInt64}, {0}, {-5}}
	for i := 0; i < 50; i++ {
		sets = append(sets, randomValues(r, 1+r.Intn(200)))
	}
	for i, vs := range sets {
		h, ref := NewHistogram(), newRefHist()
		for _, v := range vs {
			h.Record(v)
			ref.record(v)
		}
		if d := sameAsRef(h, ref); d != "" {
			t.Fatalf("set %d: %s", i, d)
		}
	}
}

// TestHistogramWindowMergeDisjoint merges histograms whose windows do not
// overlap, the lower into the higher and the higher into the lower, and
// into an empty one.
func TestHistogramWindowMergeDisjoint(t *testing.T) {
	lowVals := []int64{0, 3, 31, 40, 100}
	highVals := []int64{1 << 40, 1<<40 + 1, 1 << 50, math.MaxInt64}
	fill := func(vs ...[]int64) (*Histogram, *refHist) {
		h, ref := NewHistogram(), newRefHist()
		for _, s := range vs {
			for _, v := range s {
				h.Record(v)
				ref.record(v)
			}
		}
		return h, ref
	}
	for _, c := range []struct {
		name      string
		into, add []int64
	}{
		{"high into low", lowVals, highVals},
		{"low into high", highVals, lowVals},
		{"into empty", nil, highVals},
		{"empty into", lowVals, nil},
	} {
		h, _ := fill(c.into)
		other, _ := fill(c.add)
		h.Merge(other)
		_, ref := fill(c.into, c.add)
		if d := sameAsRef(h, ref); d != "" {
			t.Fatalf("%s: %s", c.name, d)
		}
	}
}

func TestHistogramWindowResetReuse(t *testing.T) {
	r := rng.New(11)
	h := NewHistogram()
	for _, v := range randomValues(r, 100) {
		h.Record(v)
	}
	h.Reset()
	if d := sameAsRef(h, newRefHist()); d != "" {
		t.Fatalf("after Reset: %s", d)
	}
	ref := newRefHist()
	for _, v := range append(edgeValues(), randomValues(r, 100)...) {
		h.Record(v)
		ref.record(v)
	}
	if d := sameAsRef(h, ref); d != "" {
		t.Fatalf("reused after Reset: %s", d)
	}
}

func TestHistogramEmptyHoldsNoBuckets(t *testing.T) {
	if h := NewHistogram(); cap(h.counts) != 0 {
		t.Fatalf("empty histogram holds %d buckets", cap(h.counts))
	}
}

func TestHistogramRecordInWindowAllocatesNothing(t *testing.T) {
	h := NewHistogram()
	h.Record(1000)
	h.Record(1 << 20)
	v := int64(1000)
	if n := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		v = v*3%(1<<20) + 1000
	}); n != 0 {
		t.Fatalf("Record inside the window: %v allocs, want 0", n)
	}
}
