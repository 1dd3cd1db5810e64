package main

import (
	"math"
	"path/filepath"
	"slices"
	"strings"
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

// TestNodesBelowOneRejected: -nodes 0 or -1 exits 2 with the cluster's
// topology message, with or without fault injection, instead of running
// the default testbed or blaming -fail-osd.
func TestNodesBelowOneRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-nodes", "0"},
		{"-nodes", "-1"},
		{"-nodes", "0", "-fail-at", "50", "-recover-at", "100"},
		{"-nodes", "-1", "-fail-at", "50", "-recover-at", "100"},
	} {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("afsim %v: exit %d, want 2\nstdout: %s", args, code, stdout.String())
		}
		if msg := stderr.String(); !strings.Contains(msg, "OSDNodes is") {
			t.Errorf("afsim %v: stderr %q does not name OSDNodes", args, msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("afsim %v: printed results for a cluster it should reject:\n%s", args, stdout.String())
		}
	}
}

// TestOutOfRangeFlagsRejected: each of these used to run, replacing the
// value with a default or ignoring it, and print results. Every one must
// exit 2 with a message naming the flag, before any simulation runs.
func TestOutOfRangeFlagsRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-ramp", "-1", "-runtime", "0.05", "-vms", "1", "-iodepth", "1"}, "-ramp"},
		{[]string{"-runtime", "-1"}, "-runtime"},
		{[]string{"-runtime", "0"}, "-runtime"},
		{[]string{"-image-gb", "-1"}, "-image-gb"},
		{[]string{"-image-gb", "0"}, "-image-gb"},
		{[]string{"-fail-at", "-5"}, "-fail-at"},
		{[]string{"-recover-at", "30"}, "-recover-at"},
		{[]string{"-scrub-ms", "-50"}, "-scrub-ms"},
		{[]string{"-scrub-ms", "50", "-scrub-mbps", "-2"}, "-scrub-mbps"},
		{[]string{"-scrub-ms", "50", "-scrub-pgs", "-3"}, "-scrub-pgs"},
		{[]string{"-scrub-pgs", "0"}, "-scrub-pgs"},
	} {
		var stdout, stderr strings.Builder
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("afsim %v: exit %d, want 2\nstdout: %s", tc.args, code, stdout.String())
		}
		if msg := stderr.String(); !strings.Contains(msg, tc.flag) {
			t.Errorf("afsim %v: stderr %q does not name %s", tc.args, msg, tc.flag)
		}
		if stdout.Len() != 0 {
			t.Errorf("afsim %v: printed results for flags it should reject:\n%s", tc.args, stdout.String())
		}
	}
}

// TestFlagsTheModeIgnoresRejected: a scenario run takes its workload and
// cluster from the file and a fio run has no use for -scenario-scale or
// -no-admission, so a flag the chosen mode would ignore exits 2 naming
// every such flag. -perf-dump, -cpuprofile and -memprofile serve both
// modes.
func TestFlagsTheModeIgnoresRejected(t *testing.T) {
	scn := filepath.Join("..", "..", "examples", "scenarios", "noisy-neighbor.json")
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		want int
		msg  string
	}{
		{[]string{"-scenario", scn, "-runtime", "-5", "-seed", "9", "-nodes", "7"}, 2, "-nodes, -runtime, -seed cannot be combined with -scenario"},
		{[]string{"-scenario", scn, "-profile", "community", "-perf-dump"}, 2, "-profile cannot"},
		{[]string{"-scenario-scale", "0.5"}, 2, "-scenario-scale needs -scenario"},
		{[]string{"-runtime", "0.05", "-no-admission"}, 2, "-no-admission needs -scenario"},
		{[]string{"-scenario", scn, "-scenario-scale", "0.02", "-no-admission", "-perf-dump",
			"-cpuprofile", filepath.Join(dir, "scn.cpu"), "-memprofile", filepath.Join(dir, "scn.mem")}, 0, ""},
		{[]string{"-runtime", "0.05", "-ramp", "0", "-vms", "1", "-iodepth", "1", "-nodes", "1", "-perf-dump",
			"-cpuprofile", filepath.Join(dir, "fio.cpu"), "-memprofile", filepath.Join(dir, "fio.mem")}, 0, ""},
	} {
		var stdout, stderr strings.Builder
		if code := run(tc.args, &stdout, &stderr); code != tc.want {
			t.Errorf("afsim %v: exit %d, want %d\nstderr: %s", tc.args, code, tc.want, stderr.String())
		}
		if tc.want == 0 {
			continue
		}
		if msg := stderr.String(); !strings.Contains(msg, tc.msg) {
			t.Errorf("afsim %v: stderr %q, want it to say %q", tc.args, msg, tc.msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("afsim %v: printed results for flags it should reject:\n%s", tc.args, stdout.String())
		}
	}
}

// TestPrefillWithBackgroundLoopsFails: a prefill drains the kernel, which
// the heartbeats of a fault run or a background scrub keep busy forever.
// afsim reports RunFio's error and exits 1 instead of hanging.
func TestPrefillWithBackgroundLoopsFails(t *testing.T) {
	base := []string{"-rw", "randread", "-prefill", "-runtime", "0.6", "-ramp", "0.1", "-vms", "2", "-image-gb", "1"}
	for _, extra := range [][]string{
		{"-fail-at", "200", "-recover-at", "500"},
		{"-scrub-ms", "50"},
	} {
		args := append(slices.Clone(base), extra...)
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Errorf("afsim %v: exit %d, want 1\nstderr: %s", args, code, stderr.String())
		}
		if msg := stderr.String(); !strings.Contains(msg, "Prefill") {
			t.Errorf("afsim %v: stderr %q does not name Prefill", args, msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("afsim %v: printed results:\n%s", args, stdout.String())
		}
	}
}
