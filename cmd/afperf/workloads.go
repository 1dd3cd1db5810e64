package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/afceph"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// spec is one fixed-work workload: a 4x4-OSD AFCeph cluster, a closed-loop
// fio fleet of 4 KiB requests, and for failover a fault schedule. Lengths
// are virtual time, so every repetition does identical simulated work.
type spec struct {
	name      string
	pool      string // "" is 2-way replication
	backend   string
	pattern   workload.Pattern
	readPct   int
	vms       int
	iodepth   int
	imageSize int64
	prefill   bool
	ramp      sim.Time
	runtime   sim.Time
	// failover crashes osd.1 silently at crashAt and restarts and recovers
	// it in process at recoverAt (both measured from the start of the run),
	// with client op timeouts and heartbeats on.
	failover           bool
	crashAt, recoverAt sim.Time
}

const blockSize = 4096

// specs are the benchmark's workloads, in run order. README.md gives the
// reason for each and the layer metrics it should move.
var specs = []spec{
	{
		name: "randwrite-deep", backend: "filestore",
		pattern: workload.RandWrite, vms: 8, iodepth: 16, imageSize: 512 << 20,
		ramp: 200 * sim.Millisecond, runtime: 600 * sim.Millisecond,
	},
	{
		name: "randread-wide", backend: "filestore",
		pattern: workload.RandRead, vms: 64, iodepth: 2, imageSize: 1 << 30, prefill: true,
		ramp: 100 * sim.Millisecond, runtime: 1900 * sim.Millisecond,
	},
	{
		name: "ec-mixed", pool: "ec4+2", backend: "directstore",
		pattern: workload.RandRW, readPct: 70, vms: 8, iodepth: 16, imageSize: 512 << 20, prefill: true,
		ramp: 200 * sim.Millisecond, runtime: 1300 * sim.Millisecond,
	},
	{
		name: "failover", backend: "filestore",
		pattern: workload.RandRW, readPct: 70, vms: 8, iodepth: 16, imageSize: 512 << 20, prefill: true,
		ramp: 200 * sim.Millisecond, runtime: 1300 * sim.Millisecond,
		failover: true, crashAt: 500 * sim.Millisecond, recoverAt: 1000 * sim.Millisecond,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// drainTime is how long the cluster runs on after the measured window
// before the consistency check, so filestore applies and recovery finish.
const drainTime = 2 * sim.Second

// fingerprint pins the simulated outcome of one repetition. It depends only
// on the seed and the simulator, never on host timing, so every repetition
// of a workload (traced or not) must produce the same one.
type fingerprint struct {
	Ops      uint64 `json:"ops"`       // fio ops measured after the ramp
	FinalNS  int64  `json:"final_ns"`  // virtual time after the drain
	Events   uint64 `json:"events"`    // Kernel.Dispatched after the drain
	NetBytes uint64 `json:"net_bytes"` // netsim payload bytes after the drain
	P50Bits  uint64 `json:"p50_bits"`  // math.Float64bits of the fio p50
	P99Bits  uint64 `json:"p99_bits"`  // math.Float64bits of the fio p99
}

// repResult is what one child process measures in one repetition.
type repResult struct {
	SetupNS   int64 `json:"setup_ns"`
	RunWallNS int64 `json:"run_wall_ns"`
	VirtNS    int64 `json:"virt_ns"`
	// Ops counts client ops completed inside the measured run; Attempted
	// and Failed cover every op the fleet issued, including those that
	// finished during the drain.
	Ops       uint64 `json:"ops"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`

	Events        uint64 `json:"events"`
	NetMsgs       uint64 `json:"net_msgs"`
	NetBytes      uint64 `json:"net_bytes"`
	DevWriteBytes uint64 `json:"dev_write_bytes"`
	PGLockWaitNS  int64  `json:"pglock_wait_ns"`
	Retries       uint64 `json:"retries"`
	Mallocs       uint64 `json:"mallocs"`
	GCCycles      uint32 `json:"gc_cycles"`
	Leaked        int    `json:"goroutines_leaked"`

	DownsDetected uint64   `json:"downs_detected"`
	ScrubFindings []string `json:"scrub_findings"`
	Print         fingerprint

	// Model outputs, recorded for reference only.
	IOPS  float64 `json:"model_iops"`
	P50ms float64 `json:"model_p50_ms"`
	P99ms float64 `json:"model_p99_ms"`

	// HostNS is CPU time by layer over the measured run (traced reps only).
	HostNS map[string]int64 `json:"host_ns,omitempty"`
	// MaxRSSKB is filled in by the parent from the child's rusage.
	MaxRSSKB int64 `json:"max_rss_kb"`
}

// countingDev counts the ops a fleet job issues and completes, and the
// reads that fail: every read workload is prefilled, so a read that finds
// no data (an EIO read reports exists=false too) is a failed op.
type countingDev struct {
	workload.BlockDev
	n *opCounts
}

type opCounts struct{ issued, done, failed uint64 }

func (d countingDev) WriteAt(p *sim.Proc, off, size int64, stamp uint64) {
	d.n.issued++
	d.BlockDev.WriteAt(p, off, size, stamp)
	d.n.done++
}

func (d countingDev) ReadAt(p *sim.Proc, off, size int64) (uint64, bool) {
	d.n.issued++
	stamp, ok := d.BlockDev.ReadAt(p, off, size)
	d.n.done++
	if !ok {
		d.n.failed++
	}
	return stamp, ok
}

// prefill writes one block at the start of every object of every device,
// then waits until every OSD has applied what it acked: a store creates an
// object only when it applies the write, so a read that raced the apply
// would find no object and count as failed. Unlike workload.Prefill it runs
// the kernel in bounded steps, because a cluster with heartbeats never
// drains.
func prefill(c *cluster.Cluster, devs []workload.BlockDev) {
	k := c.K
	left := len(devs)
	for i, bd := range devs {
		k.Go(fmt.Sprintf("afperf.prefill%d", i), func(p *sim.Proc) {
			for off := int64(0); off < bd.Size(); off += cluster.ObjectSize {
				bd.WriteAt(p, off, blockSize, 1)
			}
			left--
		})
	}
	for left > 0 || pendingOps(c) > 0 {
		k.Run(k.Now() + 10*sim.Millisecond)
	}
}

// pendingOps counts the committed-but-unapplied entries of every OSD.
func pendingOps(c *cluster.Cluster) int {
	n := 0
	for _, o := range c.OSDs() {
		n += o.Store().PendingOps()
	}
	return n
}

func (s spec) config(seed uint64) afceph.Config {
	cfg := afceph.DefaultConfig()
	cfg.Seed = seed
	cfg.Pool = s.pool
	cfg.Backend = s.backend
	if s.failover {
		cfg.OpTimeoutMs = 50
		cfg.HeartbeatMs = 25
		cfg.HeartbeatGraceMs = 100
	}
	return cfg
}

// lockWait sums PG-lock wait time per OSD. A restarted OSD gets a fresh lock
// set, so the caller passes the sets seen at the start of the run.
func lockWait(c *cluster.Cluster, start []*core.ShardLocks) sim.Time {
	var total sim.Time
	for i, o := range c.OSDs() {
		cur := o.Locks()
		total += cur.AggregateStats().WaitTime
		if start[i] != cur {
			total += start[i].AggregateStats().WaitTime
		}
	}
	return total
}

func deviceWriteBytes(c *cluster.Cluster) uint64 {
	var n uint64
	for _, nv := range c.NVRAMs() {
		n += nv.Stats().BytesWritten.Value()
	}
	for i := range c.OSDs() {
		n += c.DataDevice(i).Stats().BytesWritten.Value()
	}
	return n
}

// runRep builds the workload's cluster, runs it once and checks the result.
// With profile set, a CPU profile covers the measured run and its samples
// are attributed to layers.
func runRep(s spec, seed uint64, profile bool) (repResult, error) {
	var r repResult
	runtime.GC()
	goroutines0 := runtime.NumGoroutine()

	t0 := time.Now()
	fc := afceph.New(s.config(seed))
	c := fc.Internal()
	k := c.K
	fleet := workload.VMFleet(c, s.vms, s.imageSize, workload.Spec{
		Pattern:   s.pattern,
		BlockSize: blockSize,
		IODepth:   s.iodepth,
		ReadPct:   s.readPct,
		Runtime:   s.runtime,
		Ramp:      s.ramp,
		Seed:      seed + 1,
	})
	clients := make([]*cluster.Client, len(fleet.Jobs))
	devs := make([]workload.BlockDev, len(fleet.Jobs))
	for i, j := range fleet.Jobs {
		clients[i] = j.BD.(*cluster.BlockDevice).Client
		devs[i] = j.BD
	}
	if s.prefill {
		prefill(c, devs)
	}
	var n opCounts
	for i := range fleet.Jobs {
		fleet.Jobs[i].BD = countingDev{BlockDev: devs[i], n: &n}
	}
	if s.failover {
		k.Go("afperf.fault", func(p *sim.Proc) {
			p.Sleep(s.crashAt)
			c.OSDs()[1].Crash() // silent: only heartbeats can mark it down
			p.Sleep(s.recoverAt - s.crashAt)
			c.RestartOSDIn(p, 1)
			c.RecoverOSDIn(p, 1)
		})
	}
	r.SetupNS = time.Since(t0).Nanoseconds()

	locks0 := make([]*core.ShardLocks, len(c.OSDs()))
	for i, o := range c.OSDs() {
		locks0[i] = o.Locks()
	}
	lock0 := lockWait(c, locks0)
	ev0, msgs0, bytes0, dev0 := k.Dispatched(), c.Net.Msgs.Value(), c.Net.BytesSent.Value(), deviceWriteBytes(c)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	vt0 := k.Now()

	var prof bytes.Buffer
	t1 := time.Now()
	if profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return r, fmt.Errorf("start cpu profile: %w", err)
		}
	}
	res := fleet.Run(k)
	r.RunWallNS = time.Since(t1).Nanoseconds()
	if profile {
		pprof.StopCPUProfile()
	}

	runtime.ReadMemStats(&ms1)
	r.VirtNS = int64(k.Now() - vt0)
	r.Ops = n.done
	r.Events = k.Dispatched() - ev0
	r.NetMsgs = c.Net.Msgs.Value() - msgs0
	r.NetBytes = c.Net.BytesSent.Value() - bytes0
	r.DevWriteBytes = deviceWriteBytes(c) - dev0
	r.PGLockWaitNS = int64(lockWait(c, locks0) - lock0)
	r.Mallocs = ms1.Mallocs - ms0.Mallocs
	r.GCCycles = ms1.NumGC - ms0.NumGC
	r.IOPS, r.P50ms, r.P99ms = res.IOPS, res.Lat.P50, res.Lat.P99

	// Consistency: let applies and recovery finish, stop the heartbeat
	// loops so the kernel can drain, heal what recovery left racing the
	// workload, and require a clean scrub.
	k.Go("afperf.settle", func(p *sim.Proc) {
		p.Sleep(drainTime)
		c.StopHeartbeats()
	})
	k.Run(sim.Forever)
	c.Repair()
	for _, f := range c.ScrubAll() {
		r.ScrubFindings = append(r.ScrubFindings, fmt.Sprintf("%s pg %d: %s", f.OID, f.PG, f.Detail))
	}
	r.Attempted, r.Failed = n.issued, n.failed
	for _, cl := range clients {
		r.Retries += cl.Retries()
	}
	r.DownsDetected = c.DownsDetected()
	r.Print = fingerprint{
		Ops:      res.Ops,
		FinalNS:  int64(k.Now()),
		Events:   k.Dispatched(),
		NetBytes: c.Net.BytesSent.Value(),
		P50Bits:  math.Float64bits(res.Lat.P50),
		P99Bits:  math.Float64bits(res.Lat.P99),
	}

	if profile {
		samples, err := parseProfile(prof.Bytes())
		if err != nil {
			return r, fmt.Errorf("decode cpu profile: %w", err)
		}
		r.HostNS = attribute(samples)
	}

	// The cluster is unreachable from here on except through the proc
	// goroutines still parked in it, which never exit.
	runtime.GC()
	r.Leaked = runtime.NumGoroutine() - goroutines0
	return r, nil
}
