// Package cpumodel charges virtual CPU time to a finite per-node core pool.
//
// The paper's profiling found that on all-flash nodes the OSD becomes CPU
// bound (memory-allocator overhead dominates small random I/O; the
// SimpleMessenger's per-connection threads cap 16-node random-read
// scale-out; "if more than 4 OSDs are used, we do not achieve performance
// gain because OSDs used significant CPU"). Modelling CPU as a resource
// reproduces those ceilings instead of asserting them.
package cpumodel

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// Allocator identifies the memory-allocator profile in use on a node.
type Allocator int

// Allocator profiles. Costs approximate small-object allocation on a busy
// multi-threaded server: tcmalloc suffers thread-cache misses and central
// free-list contention under parallel small-object churn; jemalloc stays
// near its fast path (the paper measured the same ordering with perf).
const (
	TCMalloc Allocator = iota
	JEMalloc
	GlibcMalloc
)

// String returns the allocator name.
func (a Allocator) String() string {
	switch a {
	case TCMalloc:
		return "tcmalloc"
	case JEMalloc:
		return "jemalloc"
	case GlibcMalloc:
		return "malloc"
	default:
		return "unknown"
	}
}

// allocProfile gives the base per-allocation CPU cost and how strongly that
// cost grows with node CPU utilization (lock/central-cache contention).
type allocProfile struct {
	base       sim.Time
	contention float64
}

var allocProfiles = map[Allocator]allocProfile{
	TCMalloc:    {base: 220 * sim.Nanosecond, contention: 5.0},
	JEMalloc:    {base: 120 * sim.Nanosecond, contention: 1.2},
	GlibcMalloc: {base: 400 * sim.Nanosecond, contention: 3.0},
}

// Node is one server's CPU complex.
type Node struct {
	name      string
	cores     *sim.Resource
	allocator Allocator
	busyTime  stats.Counter
}

// NewNode creates a CPU pool with the given core count.
func NewNode(k *sim.Kernel, name string, cores int64, alloc Allocator) *Node {
	return &Node{
		name:      name,
		cores:     sim.NewResource(k, name+".cpu", cores),
		allocator: alloc,
	}
}

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// Utilization returns the mean busy-core fraction.
func (n *Node) Utilization() float64 { return n.cores.Utilization() }

// BusyNanos returns total CPU nanoseconds charged.
func (n *Node) BusyNanos() uint64 { return n.busyTime.Value() }

// Use occupies one core for d of compute, queueing when all cores are busy.
func (n *Node) Use(p *sim.Proc, d sim.Time) {
	if d <= 0 {
		return
	}
	n.cores.Use(p, d)
	n.busyTime.Add(uint64(d))
}

// Work is one CPU charge made by a callback chain (see UseCall). Its
// owner keeps it alive, and may reuse it once the charge has completed.
type Work struct {
	// Done runs as Done(Arg) once the charge completes. It runs in kernel
	// context and must not block.
	Done func(any)
	Arg  any

	n   *Node
	d   sim.Time
	job sim.Job
}

// UseCall is Use for callback models: it occupies one core for d on behalf
// of w and then runs w.Done, in the event slots Use would have used. A zero
// charge completes inline, as Use returns at once.
func (n *Node) UseCall(w *Work, d sim.Time) {
	if d <= 0 {
		w.Done(w.Arg)
		return
	}
	w.n, w.d = n, d
	w.job.Done, w.job.Arg = workDone, w
	n.cores.UseCall(&w.job, d)
}

func workDone(a any) {
	w := a.(*Work)
	w.n.busyTime.Add(uint64(w.d))
	w.Done(w.Arg)
}

// AllocCost returns the CPU time for `count` small heap allocations under
// the node's allocator and load. The returned time should then be
// charged via Use (callers usually fold it into a larger slice of work).
func (n *Node) AllocCost(count int) sim.Time {
	if count <= 0 {
		return 0
	}
	prof := allocProfiles[n.allocator]
	util := n.cores.Utilization()
	per := sim.Time(float64(prof.base) * (1 + prof.contention*util))
	return per * sim.Time(count)
}

// UseWithAllocs charges d of base compute plus the allocator cost of count
// small allocations in a single core occupancy.
func (n *Node) UseWithAllocs(p *sim.Proc, d sim.Time, count int) {
	n.Use(p, d+n.AllocCost(count))
}

// Erasure-coding CPU cost model. Reed-Solomon encode/decode is GF(2^8)
// multiply-accumulate over the stripe: throughput on a 2016-era Xeon core
// with SSSE3 table lookups (the ISA-L/jerasure class of implementation)
// lands in the low GB/s, plus a fixed per-stripe setup (matrix selection,
// buffer bookkeeping). The constants below are pinned by a unit test so
// the ec-vs-rep figure's CPU column is reproducible.
const (
	// ECStripeSetupCPU is the fixed per-stripe cost of one encode or decode
	// call, independent of stripe size.
	ECStripeSetupCPU = 2 * sim.Microsecond
	// ECGFBytesPerSec is the per-core GF multiply-accumulate throughput:
	// each byte of each produced (parity or reconstructed) shard costs one
	// pass at this rate.
	ECGFBytesPerSec int64 = 2 << 30
)

// ecShardLen is ceil(n/k), the per-shard fragment of an n-byte stripe.
func ecShardLen(n int64, k int) int64 {
	return (n + int64(k) - 1) / int64(k)
}

// ECEncodeCost returns the CPU time to encode the m parity shards of an
// n-byte logical write striped k ways: per-stripe setup plus m shards of
// GF arithmetic at ECGFBytesPerSec.
func ECEncodeCost(n int64, k, m int) sim.Time {
	if n <= 0 || k < 1 || m < 1 {
		return 0
	}
	return ECStripeSetupCPU + sim.Time(int64(m)*ecShardLen(n, k)*int64(sim.Second)/ECGFBytesPerSec)
}

// ECDecodeCost returns the CPU time to reconstruct `lost` shards of an
// n-byte logical extent from k survivors: per-stripe setup plus, for each
// lost shard, a multiply-accumulate pass over all k surviving fragments.
func ECDecodeCost(n int64, k, lost int) sim.Time {
	if n <= 0 || k < 1 || lost < 1 {
		return 0
	}
	return ECStripeSetupCPU + sim.Time(int64(lost)*int64(k)*ecShardLen(n, k)*int64(sim.Second)/ECGFBytesPerSec)
}
