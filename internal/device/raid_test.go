package device

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/sim"
)

func testRAID(k *sim.Kernel, members int, stripe int64) (*RAID0, []*SSD) {
	r := rng.New(31)
	var ssds []*SSD
	var devs []Device
	for i := 0; i < members; i++ {
		p := DefaultSSDParams()
		p.NoiseSigma = 0
		s := NewSSD(k, fmt.Sprintf("m%d", i), p, r)
		ssds = append(ssds, s)
		devs = append(devs, s)
	}
	return NewRAID0(k, "raid", stripe, devs...), ssds
}

func TestRAID0SegmentsCoverRequestProperty(t *testing.T) {
	k := sim.NewKernel()
	raid, _ := testRAID(k, 3, 64<<10)
	f := func(offRaw uint32, sizeRaw uint16) bool {
		off := int64(offRaw)
		size := int64(sizeRaw) + 1
		segs := raid.segments(nil, off, size, false)
		// Segments must cover exactly `size` bytes, each on a distinct
		// member, each non-empty.
		var total int64
		seen := map[Device]bool{}
		for _, s := range segs {
			if s.Size <= 0 {
				return false
			}
			if seen[s.dev] {
				return false
			}
			seen[s.dev] = true
			total += s.Size
		}
		return total == size && len(segs) <= 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRAID0LargeWriteParallelAcrossMembers(t *testing.T) {
	k := sim.NewKernel()
	raid, ssds := testRAID(k, 4, 64<<10)
	k.Go("w", func(p *sim.Proc) {
		raid.Write(p, 0, 1<<20) // 16 stripes over 4 members
	})
	k.Run(sim.Forever)
	for i, s := range ssds {
		if s.Stats().Writes.Value() != 1 {
			t.Fatalf("member %d got %d writes, want exactly one contiguous segment",
				i, s.Stats().Writes.Value())
		}
		if s.Stats().BytesWritten.Value() != 256<<10 {
			t.Fatalf("member %d got %d bytes", i, s.Stats().BytesWritten.Value())
		}
	}
}

func TestRAID0LargeWriteFasterThanSerial(t *testing.T) {
	// Striping must make a 1MB write complete in roughly 1/member of the
	// single-device time (bus-dominated).
	single := func(members int) sim.Time {
		k := sim.NewKernel()
		raid, _ := testRAID(k, members, 64<<10)
		var lat sim.Time
		k.Go("w", func(p *sim.Proc) {
			lat = raid.Write(p, 0, 1<<20)
		})
		k.Run(sim.Forever)
		return lat
	}
	one := single(1)
	four := single(4)
	if four >= one/2 {
		t.Fatalf("4-member write %v not well below single-member %v", four, one)
	}
}

func TestRAID0SmallWriteSingleMember(t *testing.T) {
	k := sim.NewKernel()
	raid, ssds := testRAID(k, 3, 64<<10)
	k.Go("w", func(p *sim.Proc) {
		raid.Write(p, 0, 4096)
	})
	k.Run(sim.Forever)
	total := uint64(0)
	for _, s := range ssds {
		total += s.Stats().Writes.Value()
	}
	if total != 1 {
		t.Fatalf("small write touched %d members", total)
	}
}

func TestRAID0SequentialStreamPreservedPerMember(t *testing.T) {
	// Consecutive large writes must land as member-sequential streams: in
	// sustained state they stay fast (no random-write penalty).
	k := sim.NewKernel()
	raid, ssds := testRAID(k, 3, 64<<10)
	for _, s := range ssds {
		s.SetSustained(true)
	}
	k.Go("w", func(p *sim.Proc) {
		for i := int64(0); i < 50; i++ {
			raid.Write(p, i*(1<<20), 1<<20)
		}
	})
	k.Run(sim.Forever)
	mean := raid.Stats().WriteLat.Mean()
	// Bus-dominated: ~1MB/3 members at 450MB/s ≈ 0.78ms; far below the
	// sustained random cost of a fragmented layout.
	if mean > 3e6 {
		t.Fatalf("sequential RAID write mean = %.2fms; stream detection broken", mean/1e6)
	}
}

func TestRAID0ReadStriping(t *testing.T) {
	k := sim.NewKernel()
	raid, ssds := testRAID(k, 4, 64<<10)
	k.Go("r", func(p *sim.Proc) {
		raid.Read(p, 128<<10, 512<<10)
	})
	k.Run(sim.Forever)
	touched := 0
	for _, s := range ssds {
		if s.Stats().Reads.Value() > 0 {
			touched++
		}
	}
	if touched != 4 {
		t.Fatalf("512K read touched %d members, want 4", touched)
	}
}

func TestHDDElevatorGainWithDeepQueue(t *testing.T) {
	// Random-write throughput with 32 outstanding ops must far exceed
	// 32x-serialized single-op throughput (elevator scheduling).
	run := func(workers int) float64 {
		k := sim.NewKernel()
		p := DefaultHDDParams()
		p.NoiseSigma = 0
		d := NewHDD(k, "hdd", p, rng.New(41))
		r := rng.New(42)
		ops := 0
		for w := 0; w < workers; w++ {
			k.Go("w", func(pp *sim.Proc) {
				for pp.Now() < 2*sim.Second {
					d.Write(pp, r.Int63n(1<<34)&^4095, 4096)
					ops++
				}
			})
		}
		k.Run(2 * sim.Second)
		return float64(ops) / 2
	}
	shallow := run(1)
	deep := run(32)
	if deep < 2.5*shallow {
		t.Fatalf("deep-queue throughput %.0f not >=2.5x shallow %.0f", deep, shallow)
	}
	if shallow < 50 || shallow > 200 {
		t.Fatalf("single-depth HDD random write = %.0f IOPS, want ~80", shallow)
	}
}
