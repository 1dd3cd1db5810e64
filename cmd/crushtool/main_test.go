package main

import (
	"strings"
	"testing"
)

// TestValidateWidthECOverSmallMap drives the -width validation mode at an
// EC pool's footprint on a map with fewer hosts than shards: RS(4,2) on
// 3 hosts x 2 OSDs. Every PG must still get six distinct OSDs (the whole
// map), primaries must match the replicated placement, and — with twice
// as many shards as hosts — every PG necessarily reuses hosts.
func TestValidateWidthECOverSmallMap(t *testing.T) {
	m, err := buildMap(3, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	const pgs = 128
	rep := validateWidth(m, pgs, 6, 2, 2)
	if len(rep.Short) != 0 {
		t.Errorf("short sets at width 6 on a 6-OSD map: %v", rep.Short)
	}
	if len(rep.DupOSD) != 0 {
		t.Errorf("duplicate OSDs in sets: %v", rep.DupOSD)
	}
	if len(rep.MovedPrimary) != 0 {
		t.Errorf("primaries moved between width 2 and width 6: %v", rep.MovedPrimary)
	}
	if rep.HostReuse != pgs {
		t.Errorf("HostReuse = %d, want %d (6 shards cannot host-separate on 3 hosts)", rep.HostReuse, pgs)
	}
}

// TestValidateWidthWithinHosts checks the strict regime: width at or
// under the host count must never reuse a host.
func TestValidateWidthWithinHosts(t *testing.T) {
	m, err := buildMap(4, 4, -1)
	if err != nil {
		t.Fatal(err)
	}
	rep := validateWidth(m, 256, 3, 3, 4)
	if len(rep.Short) != 0 || len(rep.DupOSD) != 0 || len(rep.MovedPrimary) != 0 {
		t.Errorf("violations at width 3 on 4 hosts: %+v", rep)
	}
	if rep.HostReuse != 0 {
		t.Errorf("HostReuse = %d at width 3 on 4 hosts, want 0", rep.HostReuse)
	}
}

// TestBadFlagsRejected: counts below 1, a negative -width and a
// -remove-host outside the map exit 2 with a message naming the flag, and
// print no report. Otherwise -replicas 0 panics in crush, -pgs 0 prints
// NaN deviations, and removing a host the map does not have reports that
// nothing moved.
func TestBadFlagsRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-hosts", "0"}, "-hosts"},
		{[]string{"-osds-per-host", "0"}, "-osds-per-host"},
		{[]string{"-pgs", "0"}, "-pgs"},
		{[]string{"-pgs", "-5"}, "-pgs"},
		{[]string{"-replicas", "0"}, "-replicas"},
		{[]string{"-width", "-1"}, "-width"},
		{[]string{"-hosts", "4", "-remove-host", "9"}, "-remove-host"},
		{[]string{"-hosts", "4", "-remove-host", "4"}, "-remove-host"},
		{[]string{"-remove-host", "-2"}, "-remove-host"},
	} {
		var stdout, stderr strings.Builder
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("crushtool %v: exit %d, want 2\nstdout: %s", tc.args, code, stdout.String())
		}
		if msg := stderr.String(); !strings.Contains(msg, tc.flag) {
			t.Errorf("crushtool %v: stderr %q does not name %s", tc.args, msg, tc.flag)
		}
		if stdout.Len() != 0 {
			t.Errorf("crushtool %v: printed a report for a run it should reject:\n%s", tc.args, stdout.String())
		}
	}
}

// TestValidRunsReport: the defaults, a host removal and a width check
// still print their reports and exit 0.
func TestValidRunsReport(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "replica sets violating host separation: 0"},
		{[]string{"-hosts", "4", "-remove-host", "3"}, "after removing host3:"},
		{[]string{"-hosts", "3", "-osds-per-host", "2", "-width", "6"}, "ok: full-width sets"},
	} {
		var stdout, stderr strings.Builder
		if code := run(tc.args, &stdout, &stderr); code != 0 {
			t.Errorf("crushtool %v: exit %d\nstderr: %s", tc.args, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), tc.want) {
			t.Errorf("crushtool %v: output lacks %q:\n%s", tc.args, tc.want, stdout.String())
		}
	}
}
