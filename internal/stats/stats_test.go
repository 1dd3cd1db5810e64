package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("quantile of empty histogram not 0")
	}
}

func TestHistogramBasicStats(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 100; i++ {
		h.Record(i * 1000)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 1000 || h.Max() != 100000 {
		t.Fatalf("min=%d max=%d", h.Min(), h.Max())
	}
	if math.Abs(h.Mean()-50500) > 1 {
		t.Fatalf("mean = %v", h.Mean())
	}
}

func TestHistogramNegativeClampedToZero(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.Min() != 0 || h.Count() != 1 {
		t.Fatalf("min=%d count=%d", h.Min(), h.Count())
	}
}

func TestHistogramQuantileAccuracyProperty(t *testing.T) {
	r := rng.New(99)
	f := func(seed uint32) bool {
		h := NewHistogram()
		samples := make([]int64, 2000)
		for i := range samples {
			v := int64(r.Exp(1e6)) // ~1ms mean exponential
			samples[i] = v
			h.Record(v)
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			exact := ExactQuantile(samples, q)
			approx := h.Quantile(q)
			if exact == 0 {
				continue
			}
			relErr := math.Abs(float64(approx-exact)) / float64(exact)
			if relErr > 0.10 { // log-linear bucket error bound with margin
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 10; i++ {
		h.Record(int64(i))
	}
	if h.Quantile(0) != 0 {
		t.Fatalf("q0 = %d", h.Quantile(0))
	}
	if h.Quantile(1) != 9 {
		t.Fatalf("q1 = %d", h.Quantile(1))
	}
}

func TestHistogramSmallValuesExact(t *testing.T) {
	// Values below subBuckets are stored exactly.
	h := NewHistogram()
	for v := int64(0); v < 32; v++ {
		h.Record(v)
	}
	for q := 0.0; q < 1.0; q += 0.1 {
		got := h.Quantile(q)
		want := int64(q * 32)
		if got != want {
			t.Fatalf("q=%.1f got %d want %d", q, got, want)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 100; i++ {
		a.Record(1000)
		b.Record(5000)
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("count = %d", a.Count())
	}
	if a.Min() != 1000 || a.Max() != 5000 {
		t.Fatalf("min=%d max=%d", a.Min(), a.Max())
	}
	if math.Abs(a.Mean()-3000) > 1 {
		t.Fatalf("mean = %v", a.Mean())
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(12345)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 || h.Sum() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestHistogramSnapshotMillis(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 1000; i++ {
		h.Record(2e6) // 2ms
	}
	s := h.SnapshotMillis()
	if math.Abs(s.Mean-2.0) > 0.1 || math.Abs(s.P50-2.0) > 0.1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram()
	h.Record(1e6)
	if !strings.Contains(h.String(), "n=1") {
		t.Fatalf("String() = %q", h.String())
	}
}

func TestHistogramBucketRoundTripProperty(t *testing.T) {
	f := func(v uint32) bool {
		val := int64(v)
		b := bucketOf(val)
		low := bucketLow(b)
		// low <= val and bucket width bounded by val/subBuckets*2.
		if low > val {
			return false
		}
		width := val/subBuckets + 1
		return val-low <= 2*width
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBucketsMatchReference(t *testing.T) {
	// ref is bucketOf written out longhand: a value below 32 has a bucket
	// of its own; above, its magnitude m is the highest set bit, found by
	// shifting, and 32 sub-buckets split [2^m, 2^(m+1)).
	ref := func(v int64) int {
		if v < 32 {
			return int(v)
		}
		m := 0
		for v>>m > 1 {
			m++
		}
		return (m-5)*32 + 32 + int(v>>(m-5)&31)
	}
	vals := []int64{0, 1, 31, 32, math.MaxInt64}
	for k := 1; k < 63; k++ {
		vals = append(vals, 1<<k-1, 1<<k, 1<<k+1)
	}
	for _, v := range vals {
		b := bucketOf(v)
		if want := ref(v); b != want {
			t.Fatalf("bucketOf(%d) = %d, want %d", v, b, want)
		}
		// bucketLow(b) is the smallest value in bucket b.
		if low := bucketLow(b); low > v || bucketOf(low) != b || low > 0 && bucketOf(low-1) != b-1 {
			t.Fatalf("bucketLow(%d) = %d is not the lowest value of the bucket holding %d", b, low, v)
		}
	}
	// The top magnitude is 62: MaxInt64 falls in its last sub-bucket.
	if b, low := bucketOf(math.MaxInt64), bucketLow(1887); b != 1887 || low != 1<<62|31<<57 {
		t.Fatalf("MaxInt64 in bucket %d, want 1887; bucket 1887 starts at %d", b, low)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("value = %d", c.Value())
	}
}

func TestTimeSeries(t *testing.T) {
	var ts TimeSeries
	for i := 0; i < 10; i++ {
		ts.Append(int64(i), float64(i))
	}
	if ts.Len() != 10 {
		t.Fatalf("len = %d", ts.Len())
	}
	if math.Abs(ts.Mean()-4.5) > 1e-9 {
		t.Fatalf("mean = %v", ts.Mean())
	}
}

func TestTimeSeriesVariation(t *testing.T) {
	var flat, spiky TimeSeries
	for i := 0; i < 100; i++ {
		flat.Append(int64(i), 100)
		if i%2 == 0 {
			spiky.Append(int64(i), 10)
		} else {
			spiky.Append(int64(i), 190)
		}
	}
	if flat.CoefVariation() != 0 {
		t.Fatalf("flat CV = %v", flat.CoefVariation())
	}
	if spiky.CoefVariation() < 0.5 {
		t.Fatalf("spiky CV = %v", spiky.CoefVariation())
	}
}

func TestTimeSeriesEmpty(t *testing.T) {
	var ts TimeSeries
	if ts.Mean() != 0 || ts.Stddev() != 0 || ts.CoefVariation() != 0 {
		t.Fatal("empty series stats must be zero")
	}
}

func TestExactQuantile(t *testing.T) {
	if ExactQuantile(nil, 0.5) != 0 {
		t.Fatal("nil samples")
	}
	s := []int64{5, 1, 3, 2, 4}
	if ExactQuantile(s, 0.5) != 3 {
		t.Fatalf("median = %d", ExactQuantile(s, 0.5))
	}
	if ExactQuantile(s, 1.0) != 5 {
		t.Fatalf("max = %d", ExactQuantile(s, 1.0))
	}
	// input must not be mutated
	if s[0] != 5 {
		t.Fatal("ExactQuantile mutated input")
	}
}

func TestFormatTable(t *testing.T) {
	out := FormatTable(
		[]string{"name", "iops"},
		[][]string{{"community", "16000"}, {"afceph", "81000"}},
	)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "community") || !strings.Contains(lines[2], "81000") {
		t.Fatalf("table:\n%s", out)
	}
}
