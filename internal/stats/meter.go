package stats

import "math"

// Counter is a monotonically increasing event counter.
type Counter struct {
	n uint64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// TimeSeries records (t, value) samples, e.g. IOPS per interval for the
// paper's Figure 4 time plot.
type TimeSeries struct {
	Name string
	T    []int64   // virtual ns
	V    []float64 // sample values
}

// Append adds one sample.
func (ts *TimeSeries) Append(t int64, v float64) {
	ts.T = append(ts.T, t)
	ts.V = append(ts.V, v)
}

// Len returns the number of samples.
func (ts *TimeSeries) Len() int { return len(ts.T) }

// Mean returns the mean of all sample values (0 when empty).
func (ts *TimeSeries) Mean() float64 {
	if len(ts.V) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range ts.V {
		sum += v
	}
	return sum / float64(len(ts.V))
}

// Stddev returns the population standard deviation of the sample values.
func (ts *TimeSeries) Stddev() float64 {
	n := len(ts.V)
	if n == 0 {
		return 0
	}
	mean := ts.Mean()
	sum := 0.0
	for _, v := range ts.V {
		d := v - mean
		sum += d * d
	}
	return math.Sqrt(sum / float64(n))
}

// CoefVariation returns stddev/mean, a unitless fluctuation measure used to
// quantify Figure 4's oscillation claims.
func (ts *TimeSeries) CoefVariation() float64 {
	m := ts.Mean()
	if m == 0 {
		return 0
	}
	return ts.Stddev() / m
}
