package cpumodel

import (
	"testing"

	"repro/internal/sim"
)

func TestUseChargesTime(t *testing.T) {
	k := sim.NewKernel()
	n := NewNode(k, "node0", 4, JEMalloc)
	var end sim.Time
	k.Go("w", func(p *sim.Proc) {
		n.Use(p, sim.Millisecond)
		end = p.Now()
	})
	k.Run(sim.Forever)
	if end != sim.Millisecond {
		t.Fatalf("end = %v", end)
	}
	if n.BusyNanos() != uint64(sim.Millisecond) {
		t.Fatalf("busy = %d", n.BusyNanos())
	}
}

func TestUseZeroOrNegativeIsFree(t *testing.T) {
	k := sim.NewKernel()
	n := NewNode(k, "node0", 1, JEMalloc)
	k.Go("w", func(p *sim.Proc) {
		n.Use(p, 0)
		n.Use(p, -5)
	})
	k.Run(sim.Forever)
	if k.Now() != 0 || n.BusyNanos() != 0 {
		t.Fatal("zero-cost use advanced time")
	}
}

func TestCoreContention(t *testing.T) {
	k := sim.NewKernel()
	n := NewNode(k, "node0", 2, JEMalloc)
	var last sim.Time
	for i := 0; i < 4; i++ {
		k.Go("w", func(p *sim.Proc) {
			n.Use(p, sim.Millisecond)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	k.Run(sim.Forever)
	// 4ms of work on 2 cores takes 2ms wall time.
	if last != 2*sim.Millisecond {
		t.Fatalf("finished at %v, want 2ms", last)
	}
}

func TestAllocCostOrdering(t *testing.T) {
	k := sim.NewKernel()
	tc := NewNode(k, "a", 4, TCMalloc)
	je := NewNode(k, "b", 4, JEMalloc)
	glibc := NewNode(k, "c", 4, GlibcMalloc)
	// At idle, jemalloc < tcmalloc < malloc.
	if !(je.AllocCost(100) < tc.AllocCost(100) && tc.AllocCost(100) < glibc.AllocCost(100)) {
		t.Fatalf("idle alloc cost ordering wrong: je=%v tc=%v malloc=%v",
			je.AllocCost(100), tc.AllocCost(100), glibc.AllocCost(100))
	}
}

func TestAllocCostGrowsWithLoad(t *testing.T) {
	k := sim.NewKernel()
	n := NewNode(k, "node0", 1, TCMalloc)
	idleCost := n.AllocCost(10)
	k.Go("busy", func(p *sim.Proc) {
		n.Use(p, sim.Second)
	})
	k.Run(500 * sim.Millisecond) // utilization now ~1.0
	busyCost := n.AllocCost(10)
	if busyCost <= idleCost {
		t.Fatalf("alloc cost did not grow under load: idle=%v busy=%v", idleCost, busyCost)
	}
	// tcmalloc contention factor 5 -> ~6x at full utilization
	if busyCost < 4*idleCost {
		t.Fatalf("tcmalloc contention too weak: idle=%v busy=%v", idleCost, busyCost)
	}
}

func TestJemallocLessSensitiveThanTcmalloc(t *testing.T) {
	k := sim.NewKernel()
	tc := NewNode(k, "a", 1, TCMalloc)
	je := NewNode(k, "b", 1, JEMalloc)
	k.Go("busyA", func(p *sim.Proc) { tc.Use(p, sim.Second) })
	k.Go("busyB", func(p *sim.Proc) { je.Use(p, sim.Second) })
	k.Run(500 * sim.Millisecond)
	tcRatio := float64(tc.AllocCost(100)) / float64(120*100)
	jeRatio := float64(je.AllocCost(100)) / float64(120*100)
	if jeRatio >= tcRatio {
		t.Fatalf("jemalloc should degrade less: je=%v tc=%v", jeRatio, tcRatio)
	}
}

func TestAllocCostZeroCount(t *testing.T) {
	k := sim.NewKernel()
	n := NewNode(k, "node0", 4, TCMalloc)
	if n.AllocCost(0) != 0 || n.AllocCost(-1) != 0 {
		t.Fatal("zero/negative count must be free")
	}
}

func TestUseWithAllocs(t *testing.T) {
	k := sim.NewKernel()
	n := NewNode(k, "node0", 4, JEMalloc)
	var end sim.Time
	k.Go("w", func(p *sim.Proc) {
		n.UseWithAllocs(p, sim.Microsecond, 10)
		end = p.Now()
	})
	k.Run(sim.Forever)
	if end <= sim.Microsecond {
		t.Fatalf("allocs added no time: %v", end)
	}
}

func TestAllocatorString(t *testing.T) {
	if TCMalloc.String() != "tcmalloc" || JEMalloc.String() != "jemalloc" ||
		GlibcMalloc.String() != "malloc" || Allocator(99).String() != "unknown" {
		t.Fatal("String() labels wrong")
	}
}

// TestECCostModelPinned pins the erasure-coding CPU constants: the
// ec-vs-rep figure's CPU column is derived from these exact values, so a
// drift here is a golden-figure change and must be deliberate.
func TestECCostModelPinned(t *testing.T) {
	cases := []struct {
		n       int64
		k, m    int
		encode  sim.Time
		lost    int
		decode  sim.Time
		comment string
	}{
		// 4K write on RS(4,2): 1 KiB shards; 2 parity passes at 2 GiB/s.
		{4096, 4, 2, 2953 * sim.Nanosecond, 1, 3907 * sim.Nanosecond, "rs42-4k"},
		// Two lost shards double the reconstruction passes, not the setup.
		{4096, 4, 2, 2953 * sim.Nanosecond, 2, 5814 * sim.Nanosecond, "rs42-4k-2lost"},
		// Shard length rounds up: 4097 bytes over k=4 is 1025-byte shards.
		{4097, 4, 2, 2954 * sim.Nanosecond, 1, 3909 * sim.Nanosecond, "rs42-odd"},
		// Wider stripes shrink shards but parity count dominates encode.
		{32768, 8, 3, 7722 * sim.Nanosecond, 1, 17258 * sim.Nanosecond, "rs83-32k"},
	}
	for _, c := range cases {
		if got := ECEncodeCost(c.n, c.k, c.m); got != c.encode {
			t.Errorf("%s: ECEncodeCost(%d,%d,%d) = %v, want %v", c.comment, c.n, c.k, c.m, got, c.encode)
		}
		if got := ECDecodeCost(c.n, c.k, c.lost); got != c.decode {
			t.Errorf("%s: ECDecodeCost(%d,%d,%d) = %v, want %v", c.comment, c.n, c.k, c.lost, got, c.decode)
		}
	}
	// Degenerate inputs are free: the replicated policy charges nothing
	// through the same entry points.
	if ECEncodeCost(0, 4, 2) != 0 || ECEncodeCost(4096, 4, 0) != 0 ||
		ECDecodeCost(0, 4, 1) != 0 || ECDecodeCost(4096, 4, 0) != 0 {
		t.Fatal("degenerate EC costs must be zero")
	}
	// Setup is per stripe: a tiny write still pays it.
	if got := ECEncodeCost(1, 4, 2); got < ECStripeSetupCPU {
		t.Fatalf("tiny encode %v below setup floor %v", got, ECStripeSetupCPU)
	}
}

func TestNodeMetadata(t *testing.T) {
	k := sim.NewKernel()
	n := NewNode(k, "node7", 16, JEMalloc)
	if n.Name() != "node7" {
		t.Fatal("metadata wrong")
	}
	if n.cores.QueueLen() != 0 {
		t.Fatal("fresh node has queue")
	}
}
