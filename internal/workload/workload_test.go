package workload

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/osd"
	"repro/internal/sim"
)

func miniCluster(cfg osd.Config) *cluster.Cluster {
	p := cluster.DefaultParams()
	p.OSDNodes = 2
	p.OSDsPerNode = 2
	p.SSDsPerOSD = 2
	p.PGs = 128
	p.OSD = cfg
	p.Sustained = false
	return cluster.New(p)
}

func TestPatternProperties(t *testing.T) {
	cases := []struct {
		p     Pattern
		name  string
		write bool
		rand  bool
	}{
		{RandWrite, "randwrite", true, true},
		{RandRead, "randread", false, true},
		{SeqWrite, "write", true, false},
		{SeqRead, "read", false, false},
	}
	for _, c := range cases {
		if c.p.String() != c.name || c.p.IsWrite() != c.write || c.p.IsRand() != c.rand {
			t.Fatalf("pattern %v metadata wrong", c.p)
		}
	}
	if Pattern(99).String() != "unknown" {
		t.Fatal("unknown pattern name")
	}
}

func TestSpecValidate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s := Spec{BlockSize: 0, IODepth: 1, Runtime: sim.Second}
	s.Validate()
}

func TestFleetMeasuresWrites(t *testing.T) {
	c := miniCluster(osd.AFCeph().Config())
	f := VMFleet(c, 2, 64<<20, Spec{
		Pattern:   RandWrite,
		BlockSize: 4096,
		IODepth:   4,
		Runtime:   500 * sim.Millisecond,
		Ramp:      100 * sim.Millisecond,
		Seed:      1,
	})
	res := f.Run(c.K)
	if res.Ops == 0 || res.IOPS <= 0 {
		t.Fatalf("no throughput measured: %+v", res)
	}
	if res.Lat.Mean <= 0 || res.Lat.P99 < res.Lat.P50 {
		t.Fatalf("latency stats inconsistent: %+v", res.Lat)
	}
	if res.Series.Len() == 0 {
		t.Fatal("no time series samples")
	}
	if res.BWMBps <= 0 {
		t.Fatal("no bandwidth")
	}
}

func TestFleetSequentialUsesAllOffsets(t *testing.T) {
	c := miniCluster(osd.AFCeph().Config())
	f := VMFleet(c, 1, 16<<20, Spec{
		Pattern:   SeqWrite,
		BlockSize: 1 << 20,
		IODepth:   2,
		Runtime:   400 * sim.Millisecond,
		Ramp:      0,
		Seed:      1,
	})
	res := f.Run(c.K)
	if res.Ops == 0 {
		t.Fatal("sequential fleet idle")
	}
}

func TestFleetReadAfterPrefill(t *testing.T) {
	c := miniCluster(osd.AFCeph().Config())
	cl := c.NewClient()
	bd := cl.OpenDevice("img", 32<<20)
	Prefill(c.K, []BlockDev{bd}, 4096, cluster.ObjectSize)
	repsBefore := uint64(0)
	for _, o := range c.OSDs() {
		repsBefore += o.Metrics().RepOps.Value()
	}
	f := &Fleet{Name: "read-test", Jobs: []Job{{BD: bd, Spec: Spec{
		Pattern:   RandRead,
		BlockSize: 4096,
		IODepth:   4,
		Runtime:   300 * sim.Millisecond,
		Ramp:      50 * sim.Millisecond,
		Seed:      3,
	}}}}
	res := f.Run(c.K)
	if res.Ops == 0 {
		t.Fatal("read fleet idle")
	}
	// Reads must not create replica traffic.
	repsAfter := uint64(0)
	for _, o := range c.OSDs() {
		repsAfter += o.Metrics().RepOps.Value()
	}
	if repsAfter != repsBefore {
		t.Fatalf("reads generated replication: %d -> %d", repsBefore, repsAfter)
	}
}

func TestEmptyFleetPanics(t *testing.T) {
	c := miniCluster(osd.AFCeph().Config())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	(&Fleet{Name: "empty"}).Run(c.K)
}

func TestResultString(t *testing.T) {
	r := Result{Name: "x", IOPS: 100}
	if r.String() == "" {
		t.Fatal("empty result string")
	}
}

// TestProfilesOrdering is the headline sanity check: AFCeph must beat
// community Ceph on small random writes on the same hardware.
func TestProfilesOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probe")
	}
	run := func(tuning osd.Tuning) Result {
		p := cluster.ParamsFor(tuning)
		p.OSDNodes = 2
		p.OSDsPerNode = 2
		p.SSDsPerOSD = 2
		p.PGs = 256
		p.Sustained = true
		c := cluster.New(p)
		f := VMFleet(c, 8, 256<<20, Spec{
			Pattern:   RandWrite,
			BlockSize: 4096,
			IODepth:   8,
			Runtime:   1500 * sim.Millisecond,
			Ramp:      500 * sim.Millisecond,
			Seed:      5,
		})
		return f.Run(c.K)
	}
	community := run(osd.Community())
	afceph := run(osd.AFCeph())
	t.Logf("community: %v", community)
	t.Logf("afceph:    %v", afceph)
	// The tiny 2x2 cluster compresses the gap (the full-scale testbed in
	// EXPERIMENTS.md shows ~4.5x); require a solid margin here.
	if afceph.IOPS < 2.5*community.IOPS {
		t.Fatalf("AFCeph %.0f IOPS not >=2.5x community %.0f", afceph.IOPS, community.IOPS)
	}
	if afceph.Lat.Mean >= community.Lat.Mean {
		t.Fatalf("AFCeph latency %.2fms not below community %.2fms",
			afceph.Lat.Mean, community.Lat.Mean)
	}
}

func TestRandRWMixesReadsAndWrites(t *testing.T) {
	c := miniCluster(osd.AFCeph().Config())
	f := VMFleet(c, 2, 64<<20, Spec{
		Pattern:   RandRW,
		ReadPct:   50,
		BlockSize: 4096,
		IODepth:   4,
		Runtime:   400 * sim.Millisecond,
		Ramp:      100 * sim.Millisecond,
		Seed:      9,
	})
	res := f.Run(c.K)
	if res.Ops == 0 {
		t.Fatal("mixed fleet idle")
	}
	var writes, reads uint64
	for _, o := range c.OSDs() {
		writes += o.Metrics().WriteOps.Value()
		reads += o.Metrics().ReadOps.Value()
	}
	if writes == 0 || reads == 0 {
		t.Fatalf("mix degenerate: writes=%d reads=%d", writes, reads)
	}
	// 50/50 mix should be within a broad band.
	frac := float64(reads) / float64(reads+writes)
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("read fraction = %.2f, want ~0.5", frac)
	}
}

func TestRandRWPatternMetadata(t *testing.T) {
	if RandRW.String() != "randrw" || !RandRW.IsRand() || RandRW.IsWrite() {
		t.Fatal("RandRW metadata wrong")
	}
}
