package crush

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// uniformMap builds hosts*osdsPer map with unit weights.
func uniformMap(t *testing.T, hosts, osdsPer int) *Map {
	t.Helper()
	var hs []Host
	id := 0
	for h := 0; h < hosts; h++ {
		host := Host{Name: fmt.Sprintf("host%d", h)}
		for o := 0; o < osdsPer; o++ {
			host.OSDs = append(host.OSDs, OSDInfo{ID: id, Weight: 1})
			id++
		}
		hs = append(hs, host)
	}
	m, err := NewMap(hs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMapValidation(t *testing.T) {
	if _, err := NewMap(nil); err == nil {
		t.Fatal("empty map accepted")
	}
	if _, err := NewMap([]Host{{Name: "h"}}); err == nil {
		t.Fatal("host without OSDs accepted")
	}
	if _, err := NewMap([]Host{{Name: "h", OSDs: []OSDInfo{{ID: 1, Weight: -1}}}}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := NewMap([]Host{
		{Name: "a", OSDs: []OSDInfo{{ID: 1, Weight: 1}}},
		{Name: "b", OSDs: []OSDInfo{{ID: 1, Weight: 1}}},
	}); err == nil {
		t.Fatal("duplicate OSD id accepted")
	}
}

func TestMapCounts(t *testing.T) {
	m := uniformMap(t, 4, 4)
	if m.NumOSDs() != 16 || len(m.hosts) != 4 {
		t.Fatalf("NumOSDs=%d NumHosts=%d", m.NumOSDs(), len(m.hosts))
	}
}

func TestPlacementDeterministic(t *testing.T) {
	m := uniformMap(t, 4, 4)
	for pg := uint32(0); pg < 100; pg++ {
		a := m.PGToOSDs(pg, 2)
		b := m.PGToOSDs(pg, 2)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("pg %d unstable: %v vs %v", pg, a, b)
		}
	}
}

func TestReplicasDistinctOSDsAndHosts(t *testing.T) {
	m := uniformMap(t, 4, 4)
	hostOf := map[int]int{}
	for h := 0; h < 4; h++ {
		for o := 0; o < 4; o++ {
			hostOf[h*4+o] = h
		}
	}
	for pg := uint32(0); pg < 512; pg++ {
		set := m.PGToOSDs(pg, 2)
		if len(set) != 2 {
			t.Fatalf("pg %d: set %v", pg, set)
		}
		if set[0] == set[1] {
			t.Fatalf("pg %d: duplicate OSD", pg)
		}
		if hostOf[set[0]] == hostOf[set[1]] {
			t.Fatalf("pg %d: replicas on same host %v", pg, set)
		}
	}
}

func TestDistributionUniformity(t *testing.T) {
	m := uniformMap(t, 4, 10)
	counts := make(map[int]int)
	const pgs = 8192
	for pg := uint32(0); pg < pgs; pg++ {
		for _, o := range m.PGToOSDs(pg, 2) {
			counts[o]++
		}
	}
	mean := float64(pgs*2) / 40
	for o, c := range counts {
		dev := math.Abs(float64(c)-mean) / mean
		if dev > 0.25 {
			t.Fatalf("osd %d has %d PGs (mean %.0f, dev %.0f%%)", o, c, mean, dev*100)
		}
	}
	if len(counts) != 40 {
		t.Fatalf("only %d OSDs received data", len(counts))
	}
}

func TestWeightProportionality(t *testing.T) {
	m, err := NewMap([]Host{
		{Name: "a", OSDs: []OSDInfo{{ID: 0, Weight: 1}}},
		{Name: "b", OSDs: []OSDInfo{{ID: 1, Weight: 1}}},
		{Name: "c", OSDs: []OSDInfo{{ID: 2, Weight: 2}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	const pgs = 20000
	for pg := uint32(0); pg < pgs; pg++ {
		counts[m.Primary(pg, 1)]++
	}
	// osd.2 should get ~2x the primaries of osd.0.
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 1.7 || ratio > 2.3 {
		t.Fatalf("weight-2 OSD got %.2fx of weight-1 (counts: %v)", ratio, counts)
	}
}

func TestStabilityOnHostRemoval(t *testing.T) {
	// Removing one of 5 hosts should remap only ~1/5 of primaries — the
	// defining CRUSH property (minimal data movement).
	before := uniformMap(t, 5, 4)
	var hs []Host
	id := 0
	for h := 0; h < 4; h++ { // drop host4
		host := Host{Name: fmt.Sprintf("host%d", h)}
		for o := 0; o < 4; o++ {
			host.OSDs = append(host.OSDs, OSDInfo{ID: id, Weight: 1})
			id++
		}
		hs = append(hs, host)
	}
	after, err := NewMap(hs)
	if err != nil {
		t.Fatal(err)
	}
	const pgs = 8192
	moved := 0
	for pg := uint32(0); pg < pgs; pg++ {
		a := before.Primary(pg, 1)
		b := after.Primary(pg, 1)
		if a != b {
			moved++
			if a < 16 {
				// A PG whose primary was on a surviving host moved anyway:
				// should be rare under straw2 (only forced moves happen).
				t.Fatalf("pg %d moved unnecessarily from osd %d to %d", pg, a, b)
			}
		}
	}
	frac := float64(moved) / pgs
	if frac < 0.12 || frac > 0.30 {
		t.Fatalf("moved fraction = %.3f, want ~0.2", frac)
	}
}

func TestRelaxedHostSeparationTinyCluster(t *testing.T) {
	// One host, three OSDs, three replicas: separation must relax rather
	// than fail.
	m, err := NewMap([]Host{{Name: "h", OSDs: []OSDInfo{
		{ID: 0, Weight: 1}, {ID: 1, Weight: 1}, {ID: 2, Weight: 1},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	set := m.PGToOSDs(7, 3)
	if len(set) != 3 {
		t.Fatalf("set = %v", set)
	}
	seen := map[int]bool{}
	for _, o := range set {
		if seen[o] {
			t.Fatalf("duplicate OSD in %v", set)
		}
		seen[o] = true
	}
}

func TestZeroWeightOSDExcluded(t *testing.T) {
	m, err := NewMap([]Host{
		{Name: "a", OSDs: []OSDInfo{{ID: 0, Weight: 1}, {ID: 1, Weight: 0}}},
		{Name: "b", OSDs: []OSDInfo{{ID: 2, Weight: 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for pg := uint32(0); pg < 2048; pg++ {
		for _, o := range m.PGToOSDs(pg, 2) {
			if o == 1 {
				t.Fatal("zero-weight OSD selected")
			}
		}
	}
}

func TestPGToOSDsPanicsOnBadReplicas(t *testing.T) {
	m := uniformMap(t, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.PGToOSDs(0, 0)
}

func TestObjectToPGInRangeProperty(t *testing.T) {
	f := func(name string, pgRaw uint16) bool {
		pgs := uint32(pgRaw%4096) + 1
		return ObjectToPG(name, pgs) < pgs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestObjectToPGSpreads(t *testing.T) {
	counts := make([]int, 64)
	for i := 0; i < 64000; i++ {
		counts[ObjectToPG(fmt.Sprintf("rbd_data.%d", i), 64)]++
	}
	for pg, c := range counts {
		if c < 500 || c > 1500 {
			t.Fatalf("pg %d got %d objects, want ~1000", pg, c)
		}
	}
}

func TestPrimaryConsistentWithSet(t *testing.T) {
	m := uniformMap(t, 4, 4)
	for pg := uint32(0); pg < 100; pg++ {
		if m.Primary(pg, 2) != m.PGToOSDs(pg, 2)[0] {
			t.Fatalf("pg %d primary mismatch", pg)
		}
	}
}

// TestPGToOSDsWideSets exercises the EC regime: set widths beyond the
// host count, where host separation relaxes (crush.go relaxHosts) but the
// core placement contract must survive. Over a grid of maps and widths,
// every PG's set must hold `width` DISTINCT OSDs whenever the map has that
// many, repeated calls must agree (placement is a pure function), and the
// primary must not move as the width grows — an EC pool widening a PG's
// set must leave the replicated pool's primaries where they were.
func TestPGToOSDsWideSets(t *testing.T) {
	grids := []struct{ hosts, osdsPer int }{
		{3, 2}, {3, 4}, {4, 4}, {2, 6},
	}
	for _, g := range grids {
		m := uniformMap(t, g.hosts, g.osdsPer)
		for _, width := range []int{g.hosts + 1, g.hosts + 2, m.NumOSDs()} {
			if width > m.NumOSDs() {
				continue
			}
			for pg := uint32(0); pg < 200; pg++ {
				set := m.PGToOSDs(pg, width)
				if len(set) != width {
					t.Fatalf("%d hosts x %d: pg %d width %d got %d OSDs",
						g.hosts, g.osdsPer, pg, width, len(set))
				}
				seen := map[int]bool{}
				for _, o := range set {
					if seen[o] {
						t.Fatalf("%d hosts x %d: pg %d width %d repeats osd.%d",
							g.hosts, g.osdsPer, pg, width, o)
					}
					seen[o] = true
				}
				again := m.PGToOSDs(pg, width)
				for i := range set {
					if set[i] != again[i] {
						t.Fatalf("pg %d width %d nondeterministic: %v vs %v", pg, width, set, again)
					}
				}
				if set[0] != m.Primary(pg, 2) {
					t.Fatalf("%d hosts x %d: pg %d primary moved widening 2 -> %d: %d vs %d",
						g.hosts, g.osdsPer, pg, width, set[0], m.Primary(pg, 2))
				}
			}
		}
	}
}

// TestPGToOSDsStrictHostSeparation pins the strict side of the relaxHosts
// boundary: at widths up to the host count, no two set members may share a
// host.
func TestPGToOSDsStrictHostSeparation(t *testing.T) {
	m := uniformMap(t, 4, 4)
	for _, width := range []int{2, 3, 4} {
		for pg := uint32(0); pg < 200; pg++ {
			hosts := map[int]bool{}
			for _, o := range m.PGToOSDs(pg, width) {
				h := o / 4
				if hosts[h] {
					t.Fatalf("pg %d width %d reuses host %d", pg, width, h)
				}
				hosts[h] = true
			}
		}
	}
}
