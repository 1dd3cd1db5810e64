package main

import (
	"math"
	"testing"

	"repro/afceph"
)

// TestMeanIOPSWindows: the fio sampler stamps each sample at the end of the
// 100 ms interval it counts, so a window (from, to] must take the samples
// stamped after from, up to and including to. The series is the one a
// `-runtime 0.6 -ramp 0.1 -fail-at 200 -recover-at 500` run records.
func TestMeanIOPSWindows(t *testing.T) {
	res := afceph.FioResult{
		SeriesT:    []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7},
		SeriesIOPS: []float64{0, 79160, 10410, 60590, 86550, 84290, 84760},
	}
	for _, tc := range []struct {
		name     string
		from, to float64
		want     float64
	}{
		{"before", 100, 200, 79160},
		{"degraded", 200, 500, (10410 + 60590 + 86550) / 3.0},
		{"after", 500, 700, (84290 + 84760) / 2.0},
		{"ramp", 0, 100, 0},
		{"empty", 700, 800, 0},
	} {
		if got := meanIOPS(res, tc.from, tc.to); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s (%g, %g]: meanIOPS = %g, want %g", tc.name, tc.from, tc.to, got, tc.want)
		}
	}
}
