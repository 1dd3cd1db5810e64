package fault

import (
	"reflect"
	"testing"

	"repro/internal/device"
	"repro/internal/rng"
	"repro/internal/sim"
)

func TestDiskFaultsInactiveAddsNothing(t *testing.T) {
	d := NewDiskFaults(1)
	if d.ReadDelay(sim.Millisecond, 4096) != 0 || d.WriteDelay(sim.Millisecond, 4096) != 0 {
		t.Fatal("inactive hook added latency")
	}
	if s := d.stats; s != (DiskStats{}) {
		t.Fatalf("inactive hook counted faults: %+v", s)
	}
}

func TestDiskFaultsSlowFactor(t *testing.T) {
	d := NewDiskFaults(1)
	d.SetSlow(3)
	if got := d.ReadDelay(sim.Millisecond, 4096); got != 2*sim.Millisecond {
		t.Fatalf("3x slow read delay = %v, want 2ms extra", got)
	}
	if got := d.WriteDelay(sim.Millisecond, 4096); got != 2*sim.Millisecond {
		t.Fatalf("3x slow write delay = %v, want 2ms extra", got)
	}
	d.Clear()
	if d.ReadDelay(sim.Millisecond, 4096) != 0 || d.WriteDelay(sim.Millisecond, 4096) != 0 {
		t.Fatal("Clear did not remove the slow fault")
	}
	s := d.stats
	if s.SlowReads != 1 || s.SlowWrites != 1 {
		t.Fatalf("slow counters = %+v, want 1/1", s)
	}
}

func TestDiskFaultsReadErrors(t *testing.T) {
	d := NewDiskFaults(1)
	d.SetReadErrors(1.0, 5*sim.Millisecond) // certain error
	for i := 0; i < 3; i++ {
		if got := d.ReadDelay(sim.Millisecond, 4096); got != 5*sim.Millisecond {
			t.Fatalf("certain read error delay = %v, want 5ms", got)
		}
	}
	if d.WriteDelay(sim.Millisecond, 4096) != 0 {
		t.Fatal("read errors leaked into the write path")
	}
	if s := d.stats; s.ReadErrors != 3 {
		t.Fatalf("ReadErrors = %d, want 3", s.ReadErrors)
	}
}

func TestGenerateDeterministicOrderedAndBounded(t *testing.T) {
	plan := Plan{
		OSDs: 4, Clients: 3,
		Start:       20 * sim.Millisecond,
		CrashCycles: 3,
		CycleGap:    200 * sim.Millisecond,
		Partition:   true,
		DiskFaults:  true,
	}
	a := Generate(plan, 42)
	b := Generate(plan, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	c := Generate(plan, 43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
	// 3 ops per crash cycle, 2 for the partition window, 4 for disk faults.
	if want := 3*plan.CrashCycles + 2 + 4; len(a) != want {
		t.Fatalf("schedule has %d ops, want %d", len(a), want)
	}
	prev := sim.Time(0)
	downOSD := -1
	for _, op := range a {
		if op.At < plan.Start || op.At < prev {
			t.Fatalf("op out of order: %+v after t=%v", op, prev)
		}
		prev = op.At
		switch op.Kind {
		case Crash, Restart, Recover, SlowDisk, ReadErrors, ClearDisk:
			if op.Target < 0 || op.Target >= plan.OSDs {
				t.Fatalf("OSD target out of range: %+v", op)
			}
		case PartitionClient, HealClient:
			if op.Target < 0 || op.Target >= plan.Clients {
				t.Fatalf("client target out of range: %+v", op)
			}
		}
		// Crash cycles must not overlap: with two replicas a second
		// concurrent crash would lose data legitimately.
		switch op.Kind {
		case Crash:
			if downOSD >= 0 {
				t.Fatalf("osd.%d crashed while osd.%d still down", op.Target, downOSD)
			}
			downOSD = op.Target
		case Recover:
			if op.Target != downOSD {
				t.Fatalf("recover of osd.%d but osd.%d is down", op.Target, downOSD)
			}
			downOSD = -1
		}
	}
	for _, op := range a {
		if op.Kind == SlowDisk && (op.Factor < 2 || op.Factor > 4) {
			t.Fatalf("slow factor %v outside [2,4]", op.Factor)
		}
		if op.Kind == ReadErrors && (op.Factor < 0.05 || op.Factor > 0.15) {
			t.Fatalf("read-error prob %v outside [0.05,0.15]", op.Factor)
		}
	}
}

// TestGenerateMaxDownOneIsUnchanged: MaxDown 0 and 1 must produce the
// exact sequential schedule — same ops, same rng draw order — so every
// pre-existing chaos run stays bit-identical.
func TestGenerateMaxDownOneIsUnchanged(t *testing.T) {
	plan := Plan{
		OSDs: 6, Clients: 3,
		Start:       20 * sim.Millisecond,
		CrashCycles: 4,
		CycleGap:    200 * sim.Millisecond,
		Partition:   true,
		DiskFaults:  true,
		BitRotCount: 3,
	}
	base := Generate(plan, 42)
	plan.MaxDown = 1
	if one := Generate(plan, 42); !reflect.DeepEqual(base, one) {
		t.Fatal("MaxDown=1 changed the schedule")
	}
}

// TestGenerateOverlapInvariants: with MaxDown = L, the lane-partitioned
// schedule must keep at most L OSDs down at any instant, always on
// distinct victims, stay deterministic per seed, and still bound every
// target.
func TestGenerateOverlapInvariants(t *testing.T) {
	plan := Plan{
		OSDs:        6,
		Start:       20 * sim.Millisecond,
		CrashCycles: 8,
		CycleGap:    200 * sim.Millisecond,
		MaxDown:     2,
	}
	a := Generate(plan, 42)
	if b := Generate(plan, 42); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different overlap schedules")
	}
	if len(a) != 3*plan.CrashCycles {
		t.Fatalf("schedule has %d ops, want %d", len(a), 3*plan.CrashCycles)
	}
	prev := sim.Time(0)
	down := map[int]bool{}
	overlapped := false
	for _, op := range a {
		if op.At < plan.Start || op.At < prev {
			t.Fatalf("op out of order: %+v after t=%v", op, prev)
		}
		prev = op.At
		if op.Target < 0 || op.Target >= plan.OSDs {
			t.Fatalf("target out of range: %+v", op)
		}
		switch op.Kind {
		case Crash:
			if down[op.Target] {
				t.Fatalf("osd.%d crashed while already down", op.Target)
			}
			down[op.Target] = true
			if len(down) > plan.MaxDown {
				t.Fatalf("%d OSDs down, MaxDown is %d", len(down), plan.MaxDown)
			}
			if len(down) == plan.MaxDown {
				overlapped = true
			}
		case Recover:
			if !down[op.Target] {
				t.Fatalf("recover of osd.%d which is not down", op.Target)
			}
			delete(down, op.Target)
		}
	}
	if !overlapped {
		t.Fatal("schedule never reached MaxDown concurrent failures")
	}
}

// TestRAID0FaultHookInflatesLatency wires DiskFaults into a real device
// array and checks the latency shows up in simulated time, and that an
// installed-but-inactive hook perturbs nothing.
func TestRAID0FaultHookInflatesLatency(t *testing.T) {
	measure := func(hook *DiskFaults) (read, write sim.Time) {
		k := sim.NewKernel()
		p := device.DefaultSSDParams()
		p.NoiseSigma = 0
		ssd := device.NewSSD(k, "s0", p, rng.New(31))
		raid := device.NewRAID0(k, "raid", 64<<10, ssd)
		if hook != nil {
			raid.SetFaultHook(hook)
		}
		k.Go("io", func(pp *sim.Proc) {
			read = raid.Read(pp, 0, 4096)
			write = raid.Write(pp, 1<<20, 4096)
		})
		k.Run(sim.Forever)
		return read, write
	}
	baseR, baseW := measure(nil)

	idle := NewDiskFaults(9)
	idleR, idleW := measure(idle)
	if idleR != baseR || idleW != baseW {
		t.Fatalf("inactive hook changed latency: r %v->%v w %v->%v", baseR, idleR, baseW, idleW)
	}

	slow := NewDiskFaults(9)
	slow.SetSlow(4)
	slowR, slowW := measure(slow)
	if slowR != 4*baseR {
		t.Fatalf("slow read = %v, want 4x base %v", slowR, baseR)
	}
	if slowW != 4*baseW {
		t.Fatalf("slow write = %v, want 4x base %v", slowW, baseW)
	}

	errs := NewDiskFaults(9)
	errs.SetReadErrors(1.0, 10*sim.Millisecond)
	errR, errW := measure(errs)
	if errR != baseR+10*sim.Millisecond {
		t.Fatalf("read with certain latent error = %v, want base %v + 10ms", errR, baseR)
	}
	if errW != baseW {
		t.Fatalf("read errors inflated a write: %v vs %v", errW, baseW)
	}
}
