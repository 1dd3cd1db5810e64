package solidfire

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

func TestChunkSpan(t *testing.T) {
	cases := []struct {
		off, size, first, count int64
	}{
		{0, 4096, 0, 1},
		{0, 32768, 0, 8},
		{100, 4096, 0, 2}, // unaligned spans two chunks
		{4096, 8192, 4096, 2},
		{8190, 2, 4096, 1},
		{8191, 2, 4096, 2}, // crosses the 8192 boundary
	}
	for _, c := range cases {
		f, n := chunkSpan(c.off, c.size)
		if f != c.first || n != c.count {
			t.Fatalf("chunkSpan(%d,%d) = (%d,%d), want (%d,%d)",
				c.off, c.size, f, n, c.first, c.count)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	c := New()
	v := c.NewVolume(64 << 20)
	var stamp uint64
	var exists bool
	c.K.Go("io", func(p *sim.Proc) {
		v.WriteAt(p, 8192, 4096, 77)
		stamp, exists = v.ReadAt(p, 8192, 4096)
	})
	c.K.Run(sim.Forever)
	if !exists || stamp != 77 {
		t.Fatalf("stamp=%d exists=%v", stamp, exists)
	}
}

func TestWriteChunksCounted(t *testing.T) {
	c := New()
	v := c.NewVolume(64 << 20)
	c.K.Go("io", func(p *sim.Proc) {
		v.WriteAt(p, 0, 32768, 1) // 8 chunks
	})
	c.K.Run(sim.Forever)
	if c.Chunks.Value() != 8 {
		t.Fatalf("chunks = %d, want 8", c.Chunks.Value())
	}
}

func TestBoundsChecked(t *testing.T) {
	c := New()
	v := c.NewVolume(1 << 20)
	c.K.Go("io", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		v.WriteAt(p, 1<<20, 4096, 0)
	})
	c.K.Run(sim.Second)
}

// fleetResult runs a uniform fleet of volumes through the shared workload
// harness.
func fleetResult(t *testing.T, pattern workload.Pattern, bs int64, vols, depth int) workload.Result {
	t.Helper()
	c := New()
	f := &workload.Fleet{Name: fmt.Sprintf("sf-%v-%d", pattern, bs)}
	for i := 0; i < vols; i++ {
		v := c.NewVolume(256 << 20)
		f.Jobs = append(f.Jobs, workload.Job{BD: v, Spec: workload.Spec{
			Pattern:   pattern,
			BlockSize: bs,
			IODepth:   depth,
			Runtime:   sim.Second,
			Ramp:      300 * sim.Millisecond,
			Seed:      uint64(i + 1),
		}})
	}
	return f.Run(c.K)
}

func TestVolumeImplementsBlockDev(t *testing.T) {
	var _ workload.BlockDev = (*Volume)(nil)
}

func Test4KRandomWriteIsStrong(t *testing.T) {
	if testing.Short() {
		t.Skip("perf probe")
	}
	res := fleetResult(t, workload.RandWrite, 4096, 16, 8)
	t.Logf("solidfire 4K randwrite: %v", res)
	// The paper measured 78K IOPS at ~2.4ms on 4 nodes. Shape check: tens
	// of thousands of IOPS at millisecond-class latency.
	if res.IOPS < 30000 {
		t.Fatalf("4K random write = %.0f IOPS, want SolidFire-class (>30K)", res.IOPS)
	}
	if res.Lat.Mean > 10 {
		t.Fatalf("latency %.2fms too high", res.Lat.Mean)
	}
}

func Test32KWorseThan4KPerByte(t *testing.T) {
	if testing.Short() {
		t.Skip("perf probe")
	}
	r4 := fleetResult(t, workload.RandWrite, 4096, 8, 8)
	r32 := fleetResult(t, workload.RandWrite, 32768, 8, 8)
	t.Logf("4K: %v", r4)
	t.Logf("32K: %v", r32)
	// 32K ops are 8 chunks each: IOPS must drop much more than 0 and
	// latency must rise (the paper: "performance is decreased after
	// non-4KB workload").
	if r32.IOPS > r4.IOPS/3 {
		t.Fatalf("32K IOPS %.0f not sufficiently below 4K IOPS %.0f", r32.IOPS, r4.IOPS)
	}
	if r32.Lat.Mean <= r4.Lat.Mean {
		t.Fatalf("32K latency %.2f not above 4K %.2f", r32.Lat.Mean, r4.Lat.Mean)
	}
}

func TestSequentialFragmented(t *testing.T) {
	if testing.Short() {
		t.Skip("perf probe")
	}
	seq := fleetResult(t, workload.SeqWrite, 1<<20, 4, 4)
	t.Logf("solidfire seq write: %v", seq)
	// 1 MiB sequential writes become 256 scattered chunk ops: bandwidth
	// must stay far below the raw NVRAM/flash streaming rate (the paper:
	// Ceph sequential is 3-4x SolidFire).
	if seq.BWMBps > 2000 {
		t.Fatalf("sequential bandwidth %.0f MB/s too high for chunk-fragmenting design", seq.BWMBps)
	}
	if seq.BWMBps < 50 {
		t.Fatalf("sequential bandwidth %.0f MB/s implausibly low", seq.BWMBps)
	}
}

func TestChunkPlacementSpreadsAcrossNodes(t *testing.T) {
	c := New()
	counts := make(map[int]int)
	nodeIdx := func(n *node) int {
		for i, cand := range c.nodes {
			if cand == n {
				return i
			}
		}
		return -1
	}
	for i := 0; i < 8000; i++ {
		n := c.chunkNode(uint64(i%16), int64(i)*4096, uint64(i*7))
		counts[nodeIdx(n)]++
	}
	if len(counts) != 4 {
		t.Fatalf("only %d nodes received chunks", len(counts))
	}
	for n, cnt := range counts {
		if cnt < 1500 || cnt > 2500 {
			t.Fatalf("node %d got %d of 8000 chunks; placement skewed", n, cnt)
		}
	}
}

func TestReadUnwrittenChunkReportsMissing(t *testing.T) {
	c := New()
	v := c.NewVolume(16 << 20)
	var ok bool
	c.K.Go("io", func(p *sim.Proc) {
		_, ok = v.ReadAt(p, 0, 4096)
	})
	c.K.Run(sim.Forever)
	if ok {
		t.Fatal("unwritten chunk reported present")
	}
}
