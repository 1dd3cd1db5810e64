// Package afceph is the public API of the AFCeph reproduction: a
// deterministic, simulation-backed model of a Ceph-like all-flash
// scale-out block store implementing the optimizations of Oh et al.,
// "Performance Optimization for All Flash Scale-out Storage"
// (IEEE CLUSTER 2016).
//
// Build a cluster with New, pick a Tuning (Community ~ stock Ceph 0.94,
// AFCeph ~ the paper's optimized build, or any ablation in between), then
// either run declarative fio-style workloads with RunFio or script I/O
// directly with Run/Ctx. Everything runs in virtual time: results are
// bit-for-bit reproducible for a given Config.Seed and take wall-clock
// time proportional to simulated events, not simulated seconds.
package afceph

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/osd"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Tuning selects which of the paper's optimizations are active. The zero
// value is fully stock (community Ceph 0.94 behaviour). Its fields, one per
// optimization, are defined and documented in internal/osd.
type Tuning = osd.Tuning

// Community returns stock Ceph 0.94 behaviour.
func Community() Tuning { return osd.Community() }

// AFCeph returns the paper's fully optimized configuration.
func AFCeph() Tuning { return osd.AFCeph() }

// Config describes the cluster to build. DefaultConfig matches the paper's
// testbed (Figure 8).
type Config struct {
	Nodes        int
	OSDsPerNode  int
	SSDsPerOSD   int
	CoresPerNode int
	PGs          int
	// Pool selects the redundancy policy: "repN" keeps N full copies,
	// "ecK+M" stripes every object over K data + M parity shards (RS
	// erasure coding; any K of the K+M shards reconstruct, so M concurrent
	// OSD losses are survived at a (K+M)/K storage overhead instead of
	// replication's N). Like the other zero fields, "" keeps the default,
	// rep2.
	Pool string
	// Sustained selects worn (steady-state) SSDs; false = clean state.
	Sustained bool
	// Verify keeps per-extent stamps so reads can be checked against
	// writes (costs host memory; disable for large benchmarks).
	Verify bool
	// TraceSample records a write-path stage trace for every Nth client
	// write (0 disables; see TraceReport).
	TraceSample int
	// OpTimeoutMs, when positive, makes clients time out in-flight ops and
	// resend with exponential backoff (required to ride through crashes,
	// partitions and failovers mid-workload).
	OpTimeoutMs float64
	// HeartbeatMs, when positive, runs OSD peer heartbeats so crashed OSDs
	// are detected and marked down automatically after HeartbeatGraceMs of
	// silence (default 4x the interval). A cluster with heartbeats enabled
	// must call StopHeartbeats before it can drain fully idle.
	HeartbeatMs      float64
	HeartbeatGraceMs float64
	// Backend selects the object-store backend: "" or "filestore" for the
	// journal+filestore double-write path, "directstore" for the
	// BlueStore-style direct-write path (small writes through a KV WAL,
	// large writes straight to the data device with metadata-only commits).
	Backend string
	// ScrubIntervalMs, when positive, runs the background scrub scheduler:
	// one round per interval, deep-verifying every PG's replicas against
	// each other online. ScrubBudgetMBps caps deep-read bandwidth (0 =
	// unthrottled), ScrubPGs bounds concurrently-scrubbed PGs (0 = 1), and
	// ScrubAutoRepair heals what a scrub finds in place. A cluster with
	// scrub enabled must call StopScrub before it can drain fully idle.
	ScrubIntervalMs float64
	ScrubBudgetMBps float64
	ScrubPGs        int
	ScrubAutoRepair bool
	Tuning          Tuning
	Seed            uint64
}

// DefaultConfig returns the paper's 4-node testbed with AFCeph tuning.
func DefaultConfig() Config {
	return Config{
		Nodes:        4,
		OSDsPerNode:  4,
		SSDsPerOSD:   3,
		CoresPerNode: 16,
		PGs:          1024,
		Sustained:    true,
		Tuning:       AFCeph(),
		Seed:         1,
	}
}

// Cluster is a running simulated storage cluster.
type Cluster struct {
	cfg   Config
	inner *cluster.Cluster
}

// New builds a cluster; it is ready for RunFio/Run immediately. It panics
// on a Config that Validate rejects.
func New(cfg Config) *Cluster {
	return &Cluster{cfg: cfg, inner: cluster.New(cfg.params())}
}

// Validate reports a Config New cannot build: an unknown backend, or a
// pool that does not parse or is wider than the cluster's OSD count.
func (cfg Config) Validate() error { return cfg.params().Validate() }

func (cfg Config) params() cluster.Params {
	p := cluster.ParamsFor(cfg.Tuning)
	if cfg.Nodes > 0 {
		p.OSDNodes = cfg.Nodes
	}
	if cfg.OSDsPerNode > 0 {
		p.OSDsPerNode = cfg.OSDsPerNode
	}
	if cfg.SSDsPerOSD > 0 {
		p.SSDsPerOSD = cfg.SSDsPerOSD
	}
	if cfg.CoresPerNode > 0 {
		p.CoresPerNode = int64(cfg.CoresPerNode)
	}
	if cfg.PGs > 0 {
		p.PGs = uint32(cfg.PGs)
	}
	if cfg.Pool != "" {
		p.Pool = cfg.Pool
	}
	p.Sustained = cfg.Sustained
	p.OSD.FStore.VerifyData = cfg.Verify
	p.OSD.TraceSample = cfg.TraceSample
	p.OSD.Backend = cfg.Backend
	p.Seed = cfg.Seed
	p.ClientOpTimeout = sim.Time(cfg.OpTimeoutMs * 1e6)
	p.HeartbeatInterval = sim.Time(cfg.HeartbeatMs * 1e6)
	p.HeartbeatGrace = sim.Time(cfg.HeartbeatGraceMs * 1e6)
	if cfg.ScrubIntervalMs > 0 {
		p.Scrub = cluster.ScrubParams{
			Interval:         sim.Time(cfg.ScrubIntervalMs * 1e6),
			BytesPerSec:      int64(cfg.ScrubBudgetMBps * (1 << 20)),
			MaxConcurrentPGs: cfg.ScrubPGs,
			AutoRepair:       cfg.ScrubAutoRepair,
			SettleDelay:      2 * sim.Millisecond,
		}
	}
	return p
}

// Internal exposes the underlying cluster for advanced instrumentation
// (benchmark harnesses); ordinary users should not need it.
func (c *Cluster) Internal() *cluster.Cluster { return c.inner }

// FioSpec is a declarative fio-style workload: VMs clients, each with its
// own image, all issuing the same pattern.
type FioSpec struct {
	// Workload is one of "randwrite", "randread", "write", "read".
	Workload  string
	BlockSize int64
	VMs       int
	IODepth   int
	ImageSize int64
	// RuntimeSec is measured time after RampSec of warm-up.
	RuntimeSec float64
	RampSec    float64
	// Prefill writes all objects first so reads hit existing data.
	Prefill bool
}

// FioResult is the aggregated measurement.
type FioResult struct {
	IOPS      float64
	BWMBps    float64
	LatMeanMs float64
	LatP50Ms  float64
	LatP99Ms  float64
	LatMaxMs  float64
	Ops       uint64
	// Series is the IOPS time series (SeriesT in seconds of virtual time).
	SeriesT    []float64
	SeriesIOPS []float64
}

// String renders a one-line fio-style summary.
func (r FioResult) String() string {
	return fmt.Sprintf("iops=%.0f bw=%.1fMB/s lat(ms) avg=%.2f p50=%.2f p99=%.2f max=%.2f",
		r.IOPS, r.BWMBps, r.LatMeanMs, r.LatP50Ms, r.LatP99Ms, r.LatMaxMs)
}

func parsePattern(w string) (workload.Pattern, error) {
	switch w {
	case "randwrite":
		return workload.RandWrite, nil
	case "randread":
		return workload.RandRead, nil
	case "write":
		return workload.SeqWrite, nil
	case "read":
		return workload.SeqRead, nil
	default:
		return 0, fmt.Errorf("afceph: unknown workload %q", w)
	}
}

// RunFio executes the workload and returns the measurement. Each call
// advances the cluster's virtual clock; successive calls run back-to-back
// on the same (aging) cluster.
func (c *Cluster) RunFio(spec FioSpec) (FioResult, error) {
	pat, err := parsePattern(spec.Workload)
	if err != nil {
		return FioResult{}, err
	}
	if spec.VMs <= 0 || spec.BlockSize <= 0 || spec.IODepth <= 0 {
		return FioResult{}, fmt.Errorf("afceph: VMs, BlockSize and IODepth must be positive")
	}
	imageSize := spec.ImageSize
	if imageSize <= 0 {
		imageSize = 1 << 30
	}
	runtime := sim.Time(spec.RuntimeSec * float64(sim.Second))
	if runtime <= 0 {
		runtime = sim.Second
	}
	ramp := sim.Time(spec.RampSec * float64(sim.Second))
	f := workload.VMFleet(c.inner, spec.VMs, imageSize, workload.Spec{
		Pattern:   pat,
		BlockSize: spec.BlockSize,
		IODepth:   spec.IODepth,
		Runtime:   runtime,
		Ramp:      ramp,
		Seed:      c.cfg.Seed + 1,
	})
	if spec.Prefill {
		var bds []workload.BlockDev
		for _, j := range f.Jobs {
			bds = append(bds, j.BD)
		}
		workload.Prefill(c.inner.K, bds, spec.BlockSize, cluster.ObjectSize)
	}
	res := f.Run(c.inner.K)
	out := FioResult{
		IOPS:      res.IOPS,
		BWMBps:    res.BWMBps,
		LatMeanMs: res.Lat.Mean,
		LatP50Ms:  res.Lat.P50,
		LatP99Ms:  res.Lat.P99,
		LatMaxMs:  res.Lat.Max,
		Ops:       res.Ops,
	}
	for i := range res.Series.T {
		out.SeriesT = append(out.SeriesT, float64(res.Series.T[i])/1e9)
		out.SeriesIOPS = append(out.SeriesIOPS, res.Series.V[i])
	}
	return out, nil
}

// Stats summarizes cluster-internal behaviour after a run.
type Stats struct {
	// PGLockWaitMs is total time spent waiting on PG locks, cluster-wide.
	PGLockWaitMs float64
	// PGLockContended counts lock acquisitions that had to wait.
	PGLockContended uint64
	// JournalFullStalls counts write-ahead submissions blocked on full
	// write-ahead space (the journal ring, or the KV WAL's memtable stalls
	// on the directstore backend).
	JournalFullStalls uint64
	// CPUUtil is the mean core utilization per server node.
	CPUUtil []float64
	// OSDWriteOps / OSDReadOps aggregate primary ops over all OSDs.
	OSDWriteOps uint64
	OSDReadOps  uint64
}

// Stats returns the current cluster statistics.
func (c *Cluster) Stats() Stats {
	ls := c.inner.AggregateLockStats()
	st := Stats{
		PGLockWaitMs:    float64(ls.WaitTime) / 1e6,
		PGLockContended: ls.Contended,
	}
	for _, o := range c.inner.OSDs() {
		st.JournalFullStalls += o.Store().WALFullStalls()
		st.OSDWriteOps += o.Metrics().WriteOps.Value()
		st.OSDReadOps += o.Metrics().ReadOps.Value()
	}
	for _, n := range c.inner.Nodes() {
		st.CPUUtil = append(st.CPUUtil, n.Utilization())
	}
	return st
}

// TraceReport renders the write-path stage breakdown (Figure 3 style)
// aggregated over all OSDs. Requires Config.TraceSample > 0 and at least
// one write workload run.
func (c *Cluster) TraceReport() string {
	var total uint64
	stages := make([]float64, len(osd.StageNames))
	for _, o := range c.inner.OSDs() {
		n := o.Traces().Count()
		if n == 0 {
			continue
		}
		for s := range stages {
			stages[s] += o.Traces().StageMeanMillis(s) * float64(n)
		}
		total += n
	}
	if total == 0 {
		return "no traces recorded (set Config.TraceSample and run a write workload)"
	}
	out := fmt.Sprintf("write path stage breakdown (%d samples)\n", total)
	prev := 0.0
	for s, name := range osd.StageNames {
		cum := stages[s] / float64(total)
		out += fmt.Sprintf("  %-18s cum %8.3f ms   +%8.3f ms\n", name, cum, cum-prev)
		prev = cum
	}
	return out
}

// PerfDump renders every perf counter in the cluster — network, CPU, and
// each OSD's daemon/journal/filestore/KV/logger subsystems — as
// deterministic JSON, in the spirit of Ceph's `ceph daemon osd.N perf
// dump`. Purely observational: dumping never perturbs the simulation.
func (c *Cluster) PerfDump() string { return c.inner.PerfDump() }

// Breakdown returns the per-segment latency attribution of the write path
// (telescoping critical-path segments whose per-op deltas sum exactly to
// end-to-end latency), aggregated over all OSDs, plus an end-to-end row.
// Requires Config.TraceSample > 0 and a write workload; returns nil
// otherwise.
func (c *Cluster) Breakdown() []trace.BreakdownRow {
	agg := osd.NewTraceCollector(true)
	for _, o := range c.inner.OSDs() {
		agg.Merge(o.Traces())
	}
	if agg.Count() == 0 {
		return nil
	}
	return agg.Breakdown()
}

// BreakdownTable renders Breakdown as an aligned text table.
func (c *Cluster) BreakdownTable() string {
	rows := c.Breakdown()
	if len(rows) == 0 {
		return "no traces recorded (set Config.TraceSample and run a write workload)"
	}
	return trace.FormatBreakdown(rows)
}

// BreakdownCSV renders Breakdown as CSV (header + one line per segment).
func (c *Cluster) BreakdownCSV() string {
	return trace.BreakdownCSV(c.Breakdown())
}

// Ctx is the handle passed to scripted I/O; it wraps a simulated process.
type Ctx struct {
	p *sim.Proc
	c *Cluster
}

// NowMs returns the current virtual time in milliseconds.
func (ctx *Ctx) NowMs() float64 { return float64(ctx.p.Now()) / 1e6 }

// SleepMs advances this script by the given virtual milliseconds.
func (ctx *Ctx) SleepMs(ms float64) { ctx.p.Sleep(sim.Time(ms * 1e6)) }

// Device is a scripted client's block device.
type Device struct {
	bd *cluster.BlockDevice
}

// OpenDevice provisions a fresh client and maps an image of `size` bytes.
func (ctx *Ctx) OpenDevice(name string, size int64) *Device {
	cl := ctx.c.inner.NewClient()
	return &Device{bd: cl.OpenDevice(name, size)}
}

// Write writes size bytes at off, blocking (in virtual time) until the
// cluster acks. stamp is an arbitrary tag readable back via Read when the
// cluster was built with Verify.
func (d *Device) Write(ctx *Ctx, off, size int64, stamp uint64) {
	d.bd.WriteAt(ctx.p, off, size, stamp)
}

// Read reads size bytes at off, returning the extent's stamp (Verify mode)
// and whether the data existed.
func (d *Device) Read(ctx *Ctx, off, size int64) (stamp uint64, exists bool) {
	return d.bd.ReadAt(ctx.p, off, size)
}

// Size returns the device capacity.
func (d *Device) Size() int64 { return d.bd.Size() }

// Run executes fn as a simulated process and drives the cluster until fn
// and all I/O it issued complete.
func (c *Cluster) Run(fn func(ctx *Ctx)) {
	c.inner.K.Go("script", func(p *sim.Proc) {
		fn(&Ctx{p: p, c: c})
	})
	c.inner.K.Run(sim.Forever)
}

// RunParallel executes each fn as its own simulated process concurrently.
func (c *Cluster) RunParallel(fns ...func(ctx *Ctx)) {
	for i, fn := range fns {
		fn := fn
		c.inner.K.Go(fmt.Sprintf("script%d", i), func(p *sim.Proc) {
			fn(&Ctx{p: p, c: c})
		})
	}
	c.inner.K.Run(sim.Forever)
}
