// Package workload is the fio of the simulator: it drives block devices
// with the access patterns the paper evaluates (random/sequential,
// read/write, 4K/32K/large blocks, numjobs x iodepth), measures IOPS and
// latency after a ramp period, and samples an IOPS time series for the
// fluctuation analyses (Figure 4).
package workload

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Pattern is the I/O access pattern.
type Pattern int

// Supported patterns (fio rw= equivalents).
const (
	RandWrite Pattern = iota
	RandRead
	SeqWrite
	SeqRead
	// RandRW mixes random reads and writes per Spec.ReadPct (fio rwmixread),
	// exercising the SSD mixed read/write penalty the paper's light-weight
	// transaction avoids.
	RandRW
)

// String returns the fio-style name.
func (p Pattern) String() string {
	switch p {
	case RandWrite:
		return "randwrite"
	case RandRead:
		return "randread"
	case SeqWrite:
		return "write"
	case SeqRead:
		return "read"
	case RandRW:
		return "randrw"
	default:
		return "unknown"
	}
}

// IsWrite reports whether the pattern issues writes.
func (p Pattern) IsWrite() bool { return p == RandWrite || p == SeqWrite }

// IsRand reports whether offsets are random.
func (p Pattern) IsRand() bool { return p == RandWrite || p == RandRead || p == RandRW }

// Spec is one fio job description.
type Spec struct {
	Pattern   Pattern
	BlockSize int64
	// IODepth is the number of outstanding requests this job keeps.
	IODepth int
	// ReadPct is the read percentage for RandRW (0 means 50).
	ReadPct int
	// Runtime is measured time after Ramp.
	Runtime sim.Time
	Ramp    sim.Time
	Seed    uint64
}

// sampleEvery is the IOPS time-series granularity.
const sampleEvery = 100 * sim.Millisecond

// Validate panics on nonsense specs (model bugs, not user errors).
func (s *Spec) Validate() {
	if s.BlockSize <= 0 || s.IODepth <= 0 || s.Runtime <= 0 {
		panic("workload: invalid spec")
	}
}

// BlockDev abstracts a client block device so the same fio harness drives
// both the Ceph-like cluster and the SolidFire comparator.
type BlockDev interface {
	// WriteAt writes size bytes at off, blocking until acked.
	WriteAt(p *sim.Proc, off, size int64, stamp uint64)
	// ReadAt reads size bytes at off, returning the first extent's stamp.
	ReadAt(p *sim.Proc, off, size int64) (stamp uint64, exists bool)
	// Size returns the device capacity in bytes.
	Size() int64
}

// Result is an aggregated measurement.
type Result struct {
	Name     string
	Ops      uint64
	IOPS     float64
	BWMBps   float64
	Lat      stats.Snapshot // milliseconds
	Series   stats.TimeSeries
	Duration sim.Time
}

// String renders a one-line fio-style summary.
func (r Result) String() string {
	return fmt.Sprintf("%s: iops=%.0f bw=%.1fMB/s lat(ms) avg=%.2f p99=%.2f max=%.2f",
		r.Name, r.IOPS, r.BWMBps, r.Lat.Mean, r.Lat.P99, r.Lat.Max)
}

// Job binds a spec to a device.
type Job struct {
	BD   BlockDev
	Spec Spec
}

// Fleet drives a set of jobs concurrently (the paper's N-VM tests) and
// aggregates one Result. Call Run after constructing.
type Fleet struct {
	Name string
	Jobs []Job
}

// Run executes the fleet on the given kernel and returns the combined
// result. Run advances the kernel itself.
func (f *Fleet) Run(k *sim.Kernel) Result {
	if len(f.Jobs) == 0 {
		panic("workload: empty fleet")
	}
	hist := stats.NewHistogram()
	var ops uint64
	var bytes uint64
	ramp := f.Jobs[0].Spec.Ramp
	runtime := f.Jobs[0].Spec.Runtime
	start := k.Now()
	measureFrom := start + ramp
	end := measureFrom + runtime

	stamp := uint64(1)
	for ji := range f.Jobs {
		job := f.Jobs[ji]
		job.Spec.Validate()
		r := rng.New(job.Spec.Seed + uint64(ji)*7919 + 13)
		blocks := job.BD.Size() / job.Spec.BlockSize
		if blocks <= 0 {
			panic("workload: image smaller than block size")
		}
		// Each iodepth slot is one synchronous issuing loop, matching
		// fio's semantics of IODepth outstanding requests per job.
		for d := 0; d < job.Spec.IODepth; d++ {
			d := d
			seqCursor := int64(d) * blocks / int64(job.Spec.IODepth)
			rr := r.Fork()
			k.Go(fmt.Sprintf("fio.j%d.d%d", ji, d), func(p *sim.Proc) {
				for p.Now() < end {
					var blk int64
					if job.Spec.Pattern.IsRand() {
						blk = rr.Int63n(blocks)
					} else {
						blk = seqCursor % blocks
						seqCursor++
					}
					off := blk * job.Spec.BlockSize
					isWrite := job.Spec.Pattern.IsWrite()
					if job.Spec.Pattern == RandRW {
						rp := job.Spec.ReadPct
						if rp <= 0 {
							rp = 50
						}
						isWrite = rr.Intn(100) >= rp
					}
					t0 := p.Now()
					if isWrite {
						stamp++
						job.BD.WriteAt(p, off, job.Spec.BlockSize, stamp)
					} else {
						job.BD.ReadAt(p, off, job.Spec.BlockSize)
					}
					if t0 >= measureFrom && p.Now() <= end {
						hist.Record(int64(p.Now() - t0))
						ops++
						bytes += uint64(job.Spec.BlockSize)
					}
				}
			})
		}
	}

	// IOPS sampler.
	var series stats.TimeSeries
	series.Name = f.Name
	k.Go("fio.sampler", func(p *sim.Proc) {
		lastOps := uint64(0)
		for p.Now() < end {
			p.Sleep(sampleEvery)
			cur := ops
			series.Append(int64(p.Now()), float64(cur-lastOps)/sampleEvery.Seconds())
			lastOps = cur
		}
	})

	k.Run(end)
	dur := runtime
	res := Result{
		Name:     f.Name,
		Ops:      ops,
		IOPS:     float64(ops) / dur.Seconds(),
		BWMBps:   float64(bytes) / dur.Seconds() / (1 << 20),
		Lat:      hist.SnapshotMillis(),
		Series:   series,
		Duration: dur,
	}
	return res
}

// VMFleet builds the paper's Figure-10 scenario: numVMs clients, each with
// its own image, all running the same spec.
func VMFleet(c *cluster.Cluster, numVMs int, imageSize int64, spec Spec) *Fleet {
	f := &Fleet{Name: fmt.Sprintf("%dvm-%s-%d", numVMs, spec.Pattern, spec.BlockSize)}
	for v := 0; v < numVMs; v++ {
		cl := c.NewClient()
		bd := cl.OpenDevice(fmt.Sprintf("vm%d", v), imageSize)
		s := spec
		s.Seed = spec.Seed + uint64(v)*104729
		f.Jobs = append(f.Jobs, Job{BD: bd, Spec: s})
	}
	return f
}

// Prefill writes each job's device once every `stride` bytes so that read
// workloads hit existing data. It runs the kernel until no event is left,
// so it never returns while a background loop (heartbeats, a scheduled
// scrub) runs: start those after it, or stop them first.
func (f *Fleet) Prefill(k *sim.Kernel, blockSize, stride int64) {
	if stride <= 0 {
		stride = cluster.ObjectSize
	}
	done := sim.NewWaitGroup(k)
	for i, j := range f.Jobs {
		bd := j.BD
		done.Add(1)
		k.Go(fmt.Sprintf("prefill%d", i), func(p *sim.Proc) {
			for off := int64(0); off < bd.Size(); off += stride {
				n := blockSize
				if off+n > bd.Size() {
					n = bd.Size() - off
				}
				bd.WriteAt(p, off, n, 1)
			}
			done.Done()
		})
	}
	k.Go("prefill.wait", func(p *sim.Proc) { done.Wait(p) })
	k.Run(sim.Forever)
}
