package main

import (
	"strings"
	"testing"
)

// TestRejectsBadInput: every input no figure can run is refused with a
// message naming the flag and exit status 2, before any simulation runs.
func TestRejectsBadInput(t *testing.T) {
	cases := []struct {
		args []string
		msg  string
	}{
		{[]string{"-fig", "bogus"}, `-fig: unknown name "bogus"`},
		{[]string{"-fig", "10,all"}, `-fig: unknown name "all"`},
		{[]string{"-fig", "10", "-panels", "nosuch"}, `-panels: unknown name "nosuch"`},
		{[]string{"-runtime", "-1"}, "-runtime must be positive"},
		{[]string{"-runtime", "0"}, "-runtime must be positive"},
		{[]string{"-ramp", "-0.5"}, "-ramp must not be negative"},
		{[]string{"-scale", "2"}, "-scale must be in (0,1]"},
		{[]string{"-fig", "10", "-vms", "10,0"}, "-vms: 0 is below 1"},
		{[]string{"-fig", "12", "-nodes", "0"}, "-nodes: 0 is below 1"},
		{[]string{"-fig", "12", "-nodes", "4,x"}, `-nodes: bad integer list "4,x"`},
		{[]string{"-nosuchflag"}, "flag provided but not defined"},
	}
	for _, c := range cases {
		var stdout, stderr strings.Builder
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit = %d, want 2", c.args, code)
		}
		if !strings.Contains(stderr.String(), c.msg) {
			t.Errorf("%v: stderr %q does not say %q", c.args, stderr.String(), c.msg)
		}
		if stdout.Len() > 0 {
			t.Errorf("%v: printed %q before refusing", c.args, stdout.String())
		}
	}
}

// TestAcceptsPanelsAndCounts: valid lists, with spaces after the commas,
// pass the checks and the figure runs.
func TestAcceptsPanelsAndCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a scaled Figure 10 cell")
	}
	var stdout, stderr strings.Builder
	args := []string{"-fig", "10", "-panels", "4K-randwrite, seq-read", "-vms", "4", "-scale", "0.05", "-runtime", "0.5", "-ramp", "0.1"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"4K-randwrite", "seq-read"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 10 table lacks panel %s:\n%s", want, out)
		}
	}
}
