package workload

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/osd"
	"repro/internal/sim"
)

func TestSweepPicksBestWithinLatencyBound(t *testing.T) {
	mk := func() *cluster.Cluster { return miniCluster(osd.AFCeph().Config) }
	s := Sweep{IODepths: []int{1, 8}, MaxLatencyMs: 1000}
	best, points := s.Best(mk, 2, 64<<20, Spec{
		Pattern:   RandWrite,
		BlockSize: 4096,
		Runtime:   300 * sim.Millisecond,
		Ramp:      100 * sim.Millisecond,
		Seed:      1,
	})
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	// Deeper queues mean more IOPS on an unsaturated mini cluster.
	if best.IODepth != 8 {
		t.Fatalf("best depth = %d, want 8", best.IODepth)
	}
	if points[0].Result.IOPS >= points[1].Result.IOPS {
		t.Fatalf("depth 1 (%.0f) not below depth 8 (%.0f)",
			points[0].Result.IOPS, points[1].Result.IOPS)
	}
	out := FormatSweep(best, points)
	if !strings.Contains(out, "*8") {
		t.Fatalf("selected point not marked:\n%s", out)
	}
}

func TestSweepLatencyBoundFiltersDeepQueues(t *testing.T) {
	// A tight latency bound must select a shallower depth than the
	// unbounded sweep would.
	mk := func() *cluster.Cluster {
		p := cluster.DefaultParams()
		p.OSDNodes = 2
		p.OSDsPerNode = 2
		p.SSDsPerOSD = 2
		p.PGs = 128
		p.OSDConfig = osd.CommunityConfig
		p.Sustained = true
		return cluster.New(p)
	}
	spec := Spec{
		Pattern:   RandWrite,
		BlockSize: 4096,
		Runtime:   400 * sim.Millisecond,
		Ramp:      200 * sim.Millisecond,
		Seed:      2,
	}
	unbounded := Sweep{IODepths: []int{1, 32}}
	bestFree, _ := unbounded.Best(mk, 4, 64<<20, spec)
	bounded := Sweep{IODepths: []int{1, 32}, MaxLatencyMs: 6}
	bestBound, _ := bounded.Best(mk, 4, 64<<20, spec)
	if bestFree.IODepth != 32 {
		t.Fatalf("unbounded best = %d, want 32", bestFree.IODepth)
	}
	if bestBound.IODepth != 1 {
		t.Fatalf("bounded best = %d, want 1 (latency-filtered)", bestBound.IODepth)
	}
}

func TestSweepEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Sweep{}.Best(func() *cluster.Cluster { return nil }, 1, 1, Spec{})
}
