package device

import (
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

func newTestSSD(k *sim.Kernel) *SSD {
	return NewSSD(k, "ssd0", DefaultSSDParams(), rng.New(1))
}

func TestSSDReadBasics(t *testing.T) {
	k := sim.NewKernel()
	d := newTestSSD(k)
	var lat sim.Time
	k.Go("r", func(p *sim.Proc) {
		lat = d.Read(p, 0, 4096)
	})
	k.Run(sim.Forever)
	if lat < 50*sim.Microsecond || lat > 300*sim.Microsecond {
		t.Fatalf("4K read latency = %v, want ~100us", lat)
	}
	if d.Stats().Reads.Value() != 1 || d.Stats().BytesRead.Value() != 4096 {
		t.Fatal("read accounting wrong")
	}
}

func TestSSDChannelParallelism(t *testing.T) {
	k := sim.NewKernel()
	p := DefaultSSDParams()
	p.NoiseSigma = 0
	d := NewSSD(k, "ssd", p, rng.New(1))
	var finish []sim.Time
	for i := 0; i < 8; i++ {
		i := i
		k.Go("r", func(pp *sim.Proc) {
			d.Read(pp, int64(i)*(10<<20), 4096) // far apart: all random
			finish = append(finish, pp.Now())
		})
	}
	k.Run(sim.Forever)
	// 8 identical reads on 4 channels complete in roughly two waves: the
	// total must be far below 8x serial but above 1x (channel queueing),
	// allowing for the serialized interface-bus transfers.
	if len(finish) != 8 {
		t.Fatal("missing completions")
	}
	single := p.ReadBase + sim.Time(4096*int64(sim.Second)/p.TransferBytesPerSec)
	last := finish[7]
	if last < 2*p.ReadBase {
		t.Fatalf("no channel queueing visible: last=%v", last)
	}
	if last > 3*single {
		t.Fatalf("parallelism missing: last=%v vs single=%v", last, single)
	}
	if finish[0] > finish[7] {
		t.Fatalf("completion order scrambled: %v", finish)
	}
}

func TestSSDSustainedSlowerThanClean(t *testing.T) {
	meanWriteLat := func(sustained bool) float64 {
		k := sim.NewKernel()
		d := newTestSSD(k)
		d.SetSustained(sustained)
		r := rng.New(11)
		k.Go("w", func(p *sim.Proc) {
			for i := 0; i < 2000; i++ {
				d.Write(p, r.Int63n(1<<28)&^4095, 4096) // random: no stream hits
			}
		})
		k.Run(sim.Forever)
		return d.Stats().WriteLat.Mean()
	}
	clean := meanWriteLat(false)
	sust := meanWriteLat(true)
	if sust < 2*clean {
		t.Fatalf("sustained (%.0fns) should be >=2x clean (%.0fns)", sust, clean)
	}
}

func TestSSDGCStallsOnlySustained(t *testing.T) {
	run := func(sustained bool) uint64 {
		k := sim.NewKernel()
		d := newTestSSD(k)
		d.SetSustained(sustained)
		r := rng.New(13)
		k.Go("w", func(p *sim.Proc) {
			for i := 0; i < 5000; i++ {
				d.Write(p, r.Int63n(1<<28)&^4095, 4096)
			}
		})
		k.Run(sim.Forever)
		return d.Stats().GCStalls.Value()
	}
	if n := run(false); n != 0 {
		t.Fatalf("clean state had %d GC stalls", n)
	}
	if n := run(true); n == 0 {
		t.Fatal("sustained state had no GC stalls in 5000 writes")
	}
}

func TestSSDMixedReadPenalty(t *testing.T) {
	// Reads issued while writes are in flight must be slower than reads on
	// an idle device.
	readLat := func(withWrites bool) float64 {
		k := sim.NewKernel()
		p := DefaultSSDParams()
		p.NoiseSigma = 0
		p.Channels = 8
		d := NewSSD(k, "ssd", p, rng.New(1))
		if withWrites {
			for i := 0; i < 4; i++ {
				k.Go("w", func(pp *sim.Proc) {
					for j := 0; j < 10000; j++ {
						d.Write(pp, 0, 4096)
					}
				})
			}
		}
		k.Go("r", func(pp *sim.Proc) {
			pp.Sleep(sim.Millisecond)
			for j := 0; j < 100; j++ {
				d.Read(pp, 0, 4096)
				pp.Sleep(100 * sim.Microsecond)
			}
		})
		k.Run(sim.Forever)
		return d.Stats().ReadLat.Mean()
	}
	idle := readLat(false)
	mixed := readLat(true)
	if mixed < 1.3*idle {
		t.Fatalf("mixed reads (%.0fns) not penalized vs idle (%.0fns)", mixed, idle)
	}
}

func TestSSDWriteAmplificationAccounting(t *testing.T) {
	k := sim.NewKernel()
	d := newTestSSD(k)
	d.SetSustained(true)
	r := rng.New(17)
	k.Go("w", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			d.Write(p, r.Int63n(1<<30)&^4095, 4096)
		}
	})
	k.Run(sim.Forever)
	host := d.Stats().BytesWritten.Value()
	nand := d.Stats().NANDBytesWritten.Value()
	if host != 100*4096 {
		t.Fatalf("host bytes = %d", host)
	}
	wa := float64(nand) / float64(host)
	if wa < 2.0 || wa > 3.5 {
		t.Fatalf("write amp = %.2f, want ~2.6", wa)
	}
}

func TestSSDSustainedIOPSCalibration(t *testing.T) {
	// A 3-SSD RAID0 in sustained state should sustain roughly 30K 4K write
	// IOPS (the paper's throttle sizing rationale).
	k := sim.NewKernel()
	r := rng.New(7)
	var members []Device
	for i := 0; i < 3; i++ {
		s := NewSSD(k, fmt.Sprintf("ssd%d", i), DefaultSSDParams(), r)
		s.SetSustained(true)
		members = append(members, s)
	}
	raid := NewRAID0(k, "raid", 64<<10, members...)
	const workers = 32
	done := 0
	for w := 0; w < workers; w++ {
		w := w
		k.Go("w", func(p *sim.Proc) {
			rr := r.Fork()
			for {
				if p.Now() > 2*sim.Second {
					return
				}
				off := (rr.Int63n(1<<20) + int64(w)) * 4096
				raid.Write(p, off, 4096)
				done++
			}
		})
	}
	k.Run(2 * sim.Second)
	iops := float64(done) / 2.0
	if iops < 20000 || iops > 45000 {
		t.Fatalf("sustained 3-SSD RAID0 4K write IOPS = %.0f, want ~30K", iops)
	}
}

func TestHDDRandomVsSequential(t *testing.T) {
	k := sim.NewKernel()
	d := NewHDD(k, "hdd", DefaultHDDParams(), rng.New(2))
	var seqLat, randLat float64
	k.Go("io", func(p *sim.Proc) {
		// Sequential pass
		for i := 0; i < 200; i++ {
			d.Write(p, int64(i)*4096, 4096)
		}
		seqLat = d.Stats().WriteLat.Mean()
		d.Stats().WriteLat.Reset()
		// Random pass
		r := rng.New(3)
		for i := 0; i < 200; i++ {
			d.Write(p, r.Int63n(1<<30), 4096)
		}
		randLat = d.Stats().WriteLat.Mean()
	})
	k.Run(sim.Forever)
	if randLat < 20*seqLat {
		t.Fatalf("random (%.0fns) should dwarf sequential (%.0fns)", randLat, seqLat)
	}
	if randLat < float64(5*sim.Millisecond) {
		t.Fatalf("random HDD latency = %.2fms, want seek-dominated >5ms", randLat/1e6)
	}
}

func TestHDDReadAccounting(t *testing.T) {
	k := sim.NewKernel()
	d := NewHDD(k, "hdd", DefaultHDDParams(), rng.New(2))
	k.Go("io", func(p *sim.Proc) {
		d.Read(p, 1<<25, 8192)
	})
	k.Run(sim.Forever)
	if d.Stats().Reads.Value() != 1 || d.Stats().BytesRead.Value() != 8192 {
		t.Fatal("read accounting wrong")
	}
}

func TestNVRAMFast(t *testing.T) {
	k := sim.NewKernel()
	d := NewNVRAM(k, "nvram", DefaultNVRAMParams())
	var lat sim.Time
	k.Go("w", func(p *sim.Proc) {
		lat = d.Write(p, 0, 4096)
	})
	k.Run(sim.Forever)
	if lat > 50*sim.Microsecond {
		t.Fatalf("NVRAM 4K write latency = %v, want ~10us", lat)
	}
	if d.Stats().Writes.Value() != 1 {
		t.Fatal("accounting wrong")
	}
}

func TestNVRAMOrdersOfMagnitudeFasterThanSSDWrite(t *testing.T) {
	k := sim.NewKernel()
	n := NewNVRAM(k, "nvram", DefaultNVRAMParams())
	s := newTestSSD(k)
	s.SetSustained(true)
	var nl, sl sim.Time
	k.Go("w", func(p *sim.Proc) {
		nl = n.Write(p, 0, 4096)
		sl = s.Write(p, 0, 4096)
	})
	k.Run(sim.Forever)
	if sl < 10*nl {
		t.Fatalf("SSD %v vs NVRAM %v: journal device should be >=10x faster", sl, nl)
	}
}

func TestRAID0RoutesAcrossMembers(t *testing.T) {
	k := sim.NewKernel()
	r := rng.New(5)
	var members []Device
	for i := 0; i < 3; i++ {
		members = append(members, NewSSD(k, fmt.Sprintf("s%d", i), DefaultSSDParams(), r))
	}
	raid := NewRAID0(k, "raid", 64<<10, members...)
	k.Go("w", func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			raid.Write(p, int64(i)*(64<<10), 4096)
		}
	})
	k.Run(sim.Forever)
	for i, m := range members {
		if got := m.Stats().Writes.Value(); got != 100 {
			t.Fatalf("member %d got %d writes, want 100", i, got)
		}
	}
	if raid.Stats().Writes.Value() != 300 {
		t.Fatal("array-level accounting wrong")
	}
}

func TestRAID0ReadRouting(t *testing.T) {
	k := sim.NewKernel()
	r := rng.New(5)
	a := NewSSD(k, "a", DefaultSSDParams(), r)
	b := NewSSD(k, "b", DefaultSSDParams(), r)
	raid := NewRAID0(k, "raid", 4096, a, b)
	k.Go("r", func(p *sim.Proc) {
		raid.Read(p, 0, 4096)    // stripe 0 -> a
		raid.Read(p, 4096, 4096) // stripe 1 -> b
	})
	k.Run(sim.Forever)
	if a.Stats().Reads.Value() != 1 || b.Stats().Reads.Value() != 1 {
		t.Fatalf("a=%d b=%d", a.Stats().Reads.Value(), b.Stats().Reads.Value())
	}
}

func TestRAID0Validation(t *testing.T) {
	for _, tc := range []func(){
		func() { NewRAID0(sim.NewKernel(), "x", 4096) },
		func() { NewRAID0(sim.NewKernel(), "x", 0, NewNVRAM(sim.NewKernel(), "n", DefaultNVRAMParams())) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			tc()
		}()
	}
}

func TestSSDParamValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	p := DefaultSSDParams()
	p.Channels = 0
	NewSSD(sim.NewKernel(), "bad", p, rng.New(1))
}

func TestDeviceInterfaceCompliance(t *testing.T) {
	k := sim.NewKernel()
	devs := []Device{
		NewSSD(k, "s", DefaultSSDParams(), rng.New(1)),
		NewHDD(k, "h", DefaultHDDParams(), rng.New(1)),
		NewNVRAM(k, "n", DefaultNVRAMParams()),
		NewRAID0(k, "r", 4096, NewNVRAM(k, "n2", DefaultNVRAMParams())),
	}
	// Submit completes every request through Done, with its latency.
	done := 0
	for _, d := range devs {
		io := &IO{Off: 8192, Size: 4096, Write: true}
		io.Done = func(any) {
			if io.Lat <= 0 {
				t.Errorf("%s: latency %v", d.Name(), io.Lat)
			}
			done++
		}
		d.Submit(io)
	}
	k.Run(sim.Forever)
	if done != len(devs) {
		t.Fatalf("%d of %d submitted requests completed", done, len(devs))
	}
}
