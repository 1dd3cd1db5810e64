// Package fault provides deterministic fault injection for the simulated
// cluster: latent disk errors and slow-disk latency inflation (hooked into
// internal/device), and seeded thrash schedules (crash/restart/partition
// cycles) executed by the QA harness. Every fault draw comes from a forked
// rng stream, so a fixed seed yields a bit-for-bit identical fault history;
// when a fault class is disabled its rng is never consulted, so enabling
// the hooks with zero rates perturbs nothing.
package fault

import (
	"sort"

	"repro/internal/rng"
	"repro/internal/sim"
)

// DiskStats counts injected device faults.
type DiskStats struct {
	ReadErrors uint64 // latent read errors (retried after a penalty)
	SlowReads  uint64 // reads inflated by the slow-disk factor
	SlowWrites uint64 // writes inflated by the slow-disk factor
}

// DiskFaults implements device.FaultHook: it injects latent read errors
// (a read succeeds only after an error-and-retry penalty) and slow-disk
// latency inflation (a failing or worn device serving I/O at a fraction of
// its rated speed). All state changes are instantaneous and deterministic.
type DiskFaults struct {
	rnd *rng.Rand

	slowFactor   float64  // >1 inflates every I/O by (factor-1)*base
	readErrProb  float64  // probability a read hits a latent error
	readErrDelay sim.Time // penalty per latent error (error + retry)

	stats DiskStats
}

// NewDiskFaults creates an inactive hook with its own seeded stream.
func NewDiskFaults(seed uint64) *DiskFaults {
	return &DiskFaults{rnd: rng.New(seed)}
}

// SetSlow inflates device latency by factor (e.g. 3.0 = 3x slower);
// factor <= 1 clears the fault.
func (d *DiskFaults) SetSlow(factor float64) { d.slowFactor = factor }

// SetReadErrors injects latent read errors with probability prob, each
// costing penalty extra latency (the device-internal retry). prob <= 0
// clears the fault.
func (d *DiskFaults) SetReadErrors(prob float64, penalty sim.Time) {
	d.readErrProb = prob
	d.readErrDelay = penalty
}

// Clear removes all active disk faults.
func (d *DiskFaults) Clear() {
	d.slowFactor = 0
	d.readErrProb = 0
}

// ReadDelay returns extra latency for a read of `size` bytes whose fault-free
// service time was `base`. The rng is only consulted while a probabilistic
// fault is active, keeping fault-free runs bit-identical to hook-free ones.
func (d *DiskFaults) ReadDelay(base sim.Time, size int64) sim.Time {
	var extra sim.Time
	if d.slowFactor > 1 {
		extra += sim.Time(float64(base) * (d.slowFactor - 1))
		d.stats.SlowReads++
	}
	if d.readErrProb > 0 && d.rnd.Float64() < d.readErrProb {
		extra += d.readErrDelay
		d.stats.ReadErrors++
	}
	return extra
}

// WriteDelay returns extra latency for a write (slow-disk inflation only;
// latent errors are a read phenomenon).
func (d *DiskFaults) WriteDelay(base sim.Time, size int64) sim.Time {
	if d.slowFactor > 1 {
		d.stats.SlowWrites++
		return sim.Time(float64(base) * (d.slowFactor - 1))
	}
	return 0
}

// OpKind enumerates thrash-schedule operations.
type OpKind int

// Thrash operations. Crash/Restart/Recover target an OSD; PartitionClient/
// HealClient isolate a client from the public network; SlowDisk/ReadErrors/
// ClearDisk drive a DiskFaults hook; BitRot silently corrupts one stored
// object copy on an OSD (the driver picks which, so placement-aware
// policies stay in the harness).
const (
	Crash OpKind = iota
	Restart
	Recover
	PartitionClient
	HealClient
	SlowDisk
	ReadErrors
	ClearDisk
	BitRot
)

// Op is one scheduled fault action. At is an absolute simulated time;
// Target is an OSD id (Crash/Restart/Recover/SlowDisk/ReadErrors/ClearDisk)
// or a client index (PartitionClient/HealClient). Factor parameterizes
// SlowDisk (latency multiplier) and ReadErrors (probability).
type Op struct {
	At     sim.Time
	Kind   OpKind
	Target int
	Factor float64
}

// Plan sizes a generated thrash schedule.
type Plan struct {
	OSDs        int      // OSDs available as crash victims
	Clients     int      // clients available as partition victims
	Start       sim.Time // first fault no earlier than this
	CrashCycles int      // crash -> restart -> recover sequences
	CycleGap    sim.Time // spacing between cycle phases
	Partition   bool     // include one client partition window
	DiskFaults  bool     // include one slow-disk and one read-error window
	// BitRotCount scatters silent single-copy corruptions across the
	// schedule window (interleaved with the other faults, sorted by time).
	BitRotCount int
	// MaxDown allows up to MaxDown crash cycles to overlap in time (for
	// pools that tolerate multiple concurrent failures, e.g. RS(k,m) with
	// m >= 2). 0 or 1 keeps the original strictly sequential schedule —
	// same ops, same rng draws, bit-identically.
	MaxDown int
}

// Generate derives a deterministic fault schedule from the plan and seed.
// Ops come out in non-decreasing time order. With MaxDown <= 1 crash
// cycles never overlap, so at most one OSD is down at a time (the QA
// cluster runs two replicas); with MaxDown = L > 1 the victims are
// partitioned into L lanes by id so concurrent cycles always hit distinct
// OSDs and never more than L are down together.
func Generate(p Plan, seed uint64) []Op {
	r := rng.New(seed)
	var ops []Op
	t := p.Start
	if p.MaxDown > 1 {
		ops, t = generateOverlap(p, r)
	} else {
		for i := 0; i < p.CrashCycles; i++ {
			victim := r.Intn(p.OSDs)
			ops = append(ops,
				Op{At: t, Kind: Crash, Target: victim},
				Op{At: t + p.CycleGap, Kind: Restart, Target: victim},
				Op{At: t + 2*p.CycleGap, Kind: Recover, Target: victim},
			)
			t += 3 * p.CycleGap
		}
	}
	if p.Partition && p.Clients > 0 {
		victim := r.Intn(p.Clients)
		ops = append(ops,
			Op{At: t, Kind: PartitionClient, Target: victim},
			Op{At: t + p.CycleGap, Kind: HealClient, Target: victim},
		)
		t += 2 * p.CycleGap
	}
	if p.DiskFaults {
		victim := r.Intn(p.OSDs)
		ops = append(ops,
			Op{At: t, Kind: SlowDisk, Target: victim, Factor: 2 + 2*r.Float64()},
			Op{At: t + p.CycleGap, Kind: ClearDisk, Target: victim},
			Op{At: t + p.CycleGap, Kind: ReadErrors, Target: victim, Factor: 0.05 + 0.1*r.Float64()},
			Op{At: t + 2*p.CycleGap, Kind: ClearDisk, Target: victim},
		)
		t += 2 * p.CycleGap
	}
	if p.BitRotCount > 0 {
		// Spread the corruptions over the window covered so far so they
		// interleave with crashes and partitions rather than queueing at
		// the end; insertion keeps the schedule time-sorted. The Target is
		// advisory (victim OSD hint) — the driver re-picks against live
		// placement to honor its clean-peer policy.
		window := t - p.Start
		if window <= 0 {
			window = p.CycleGap * sim.Time(p.BitRotCount)
		}
		var rot []Op
		for i := 0; i < p.BitRotCount; i++ {
			at := p.Start + sim.Time(r.Int63n(int64(window)+1))
			rot = append(rot, Op{At: at, Kind: BitRot, Target: r.Intn(p.OSDs)})
		}
		ops = append(ops, rot...)
		sort.SliceStable(ops, func(i, j int) bool { return ops[i].At < ops[j].At })
	}
	return ops
}

// generateOverlap builds MaxDown overlapping crash-cycle lanes. Lane l's
// victims are drawn only from the OSD ids with id % lanes == l, so
// concurrent cycles always target distinct OSDs and at most MaxDown are
// down at once; lane starts are staggered by one cycle gap so crashes,
// restarts and recoveries interleave instead of synchronizing. Returns the
// schedule (time-sorted) and the end of the crash window.
func generateOverlap(p Plan, r *rng.Rand) ([]Op, sim.Time) {
	lanes := p.MaxDown
	if lanes > p.OSDs {
		lanes = p.OSDs
	}
	var ops []Op
	end := p.Start
	for i := 0; i < p.CrashCycles; i++ {
		lane := i % lanes
		cycle := i / lanes
		n := (p.OSDs - lane + lanes - 1) / lanes // ids in this lane
		victim := lane + lanes*r.Intn(n)
		t := p.Start + sim.Time(lane)*p.CycleGap + sim.Time(cycle)*3*p.CycleGap
		ops = append(ops,
			Op{At: t, Kind: Crash, Target: victim},
			Op{At: t + p.CycleGap, Kind: Restart, Target: victim},
			Op{At: t + 2*p.CycleGap, Kind: Recover, Target: victim},
		)
		if e := t + 3*p.CycleGap; e > end {
			end = e
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].At < ops[j].At })
	return ops, end
}
