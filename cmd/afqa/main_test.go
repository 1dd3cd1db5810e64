package main

import (
	"strings"
	"testing"
)

// TestNonPositiveCountsRejected: -clients, -ops and -seeds below 1 exit 2
// with a message naming the flag, and run nothing. Otherwise a zero count
// reports "all invariants held" without checking any, and a negative one
// reports a false wedge.
func TestNonPositiveCountsRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-seeds", "0"}, "-seeds"},
		{[]string{"-clients", "0"}, "-clients"},
		{[]string{"-clients", "-3"}, "-clients"},
		{[]string{"-ops", "0"}, "-ops"},
		{[]string{"-ops", "-1"}, "-ops"},
	} {
		var stdout, stderr strings.Builder
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("afqa %v: exit %d, want 2\nstdout: %s", tc.args, code, stdout.String())
		}
		if msg := stderr.String(); !strings.Contains(msg, tc.flag) {
			t.Errorf("afqa %v: stderr %q does not name %s", tc.args, msg, tc.flag)
		}
		if stdout.Len() != 0 {
			t.Errorf("afqa %v: printed results for a run it should reject:\n%s", tc.args, stdout.String())
		}
	}
}

func TestSmallRunPasses(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-clients", "1", "-ops", "4", "-seeds", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if out := stdout.String(); !strings.HasPrefix(out, "PASS seed=1 ") || !strings.HasSuffix(out, "all invariants held\n") {
		t.Fatalf("stdout:\n%s", out)
	}
}
