package device

import (
	"math"

	"repro/internal/rng"
	"repro/internal/sim"
)

// HDDParams configures the spinning-disk model (7.2K RPM nearline class).
type HDDParams struct {
	// SeekAvg is the average seek time for a random access.
	SeekAvg sim.Time
	// RotationalLatency is the average rotational delay (half a revolution).
	RotationalLatency sim.Time
	// TransferBytesPerSec is the media rate.
	TransferBytesPerSec int64
	// SeqThreshold: an access within this many bytes of the previous end is
	// treated as sequential (no seek, no rotational delay).
	SeqThreshold int64
	// NoiseSigma is lognormal service-time noise.
	NoiseSigma float64
}

// DefaultHDDParams returns 7.2K RPM SATA parameters (≈8.3 ms/rev).
func DefaultHDDParams() HDDParams {
	return HDDParams{
		SeekAvg:             8 * sim.Millisecond,
		RotationalLatency:   4160 * sim.Microsecond,
		TransferBytesPerSec: 150 << 20,
		SeqThreshold:        1 << 20,
		NoiseSigma:          0.15,
	}
}

// HDD is a single-actuator spinning disk: one request in service at a time,
// fast when sequential, seek-dominated when random. Its existence in the
// model demonstrates why Ceph's HDD-tuned software overheads were invisible
// before flash.
type HDD struct {
	name    string
	k       *sim.Kernel
	params  HDDParams
	arm     *sim.Resource
	rnd     *rng.Rand
	streams []int64 // recently active stream end offsets (elevator batching)
	evict   int
	stats   *Stats
	pool    ioPool
}

// NewHDD creates an HDD.
func NewHDD(k *sim.Kernel, name string, params HDDParams, r *rng.Rand) *HDD {
	return &HDD{
		name:    name,
		k:       k,
		params:  params,
		arm:     sim.NewResource(k, name+".arm", 1),
		rnd:     r.Fork(),
		streams: make([]int64, 0, 4),
		stats:   NewStats(),
	}
}

// Name returns the device name.
func (d *HDD) Name() string { return d.name }

// Stats returns accumulated metrics.
func (d *HDD) Stats() *Stats { return d.stats }

func (d *HDD) noise(t sim.Time) sim.Time {
	if d.params.NoiseSigma <= 0 {
		return t
	}
	return sim.Time(float64(t) * d.rnd.LogNormal(0, d.params.NoiseSigma))
}

func (d *HDD) service(off, size int64) sim.Time {
	svc := sim.Time(size * int64(sim.Second) / d.params.TransferBytesPerSec)
	// A few concurrent streams (log appends, a scan) stay near-sequential
	// under elevator scheduling even when interleaved with other traffic.
	var seq bool
	d.streams, seq = seqHit(d.streams, &d.evict, d.params.SeqThreshold, off, off+size)
	if !seq {
		seek := float64(d.params.SeekAvg + d.params.RotationalLatency)
		// Elevator gain: with a deep queue the scheduler orders requests by
		// position, cutting the average seek roughly with the square root
		// of the queue depth. This is why HDD-era Ceph (deep filestore
		// queues, NCQ) performs far better than one-seek-per-IO suggests —
		// and why its software was tuned around batching.
		if q := d.arm.QueueLen(); q > 0 {
			seek /= math.Sqrt(float64(1 + q))
			if min := float64(d.params.SeekAvg) / 6; seek < min {
				seek = min
			}
		}
		svc += sim.Time(seek)
	}
	return d.noise(svc)
}

// Submit starts io: it waits for the arm, then holds it for a service
// time computed at the grant, where the elevator sees the queue behind it.
func (d *HDD) Submit(io *IO) {
	io.begin(d, d.k.Now(), hddGranted)
	d.arm.AcquireCall(&io.job)
}

func hddGranted(a any) {
	io := a.(*IO)
	d := io.dev.(*HDD)
	d.k.AfterCall(d.service(io.Off, io.Size), hddServed, io)
}

func hddServed(a any) {
	io := a.(*IO)
	d := io.dev.(*HDD)
	d.arm.Release()
	if io.Write {
		d.stats.NANDBytesWritten.Add(uint64(io.Size))
	}
	io.complete(d.stats, d.k.Now())
}

// Read services a read request: Submit, then Await.
func (d *HDD) Read(p *sim.Proc, off, size int64) sim.Time {
	return d.pool.wait(d, p, off, size, false)
}

// Write services a write request: Submit, then Await.
func (d *HDD) Write(p *sim.Proc, off, size int64) sim.Time {
	return d.pool.wait(d, p, off, size, true)
}

// NVRAMParams configures the battery-backed DRAM journal device.
type NVRAMParams struct {
	// AccessLatency is the fixed per-operation latency.
	AccessLatency sim.Time
	// TransferBytesPerSec is the DMA rate.
	TransferBytesPerSec int64
	// Parallelism is the number of concurrent DMA engines.
	Parallelism int64
}

// DefaultNVRAMParams returns PCIe NVRAM-card parameters (the paper used a
// PMC 8 GB NVRAM card as journal device).
func DefaultNVRAMParams() NVRAMParams {
	return NVRAMParams{
		AccessLatency:       8 * sim.Microsecond,
		TransferBytesPerSec: 2 << 30,
		Parallelism:         8,
	}
}

// NVRAM is a µs-class persistent memory device.
type NVRAM struct {
	name    string
	k       *sim.Kernel
	params  NVRAMParams
	engines *sim.Resource
	stats   *Stats
	pool    ioPool
}

// NewNVRAM creates an NVRAM device.
func NewNVRAM(k *sim.Kernel, name string, params NVRAMParams) *NVRAM {
	return &NVRAM{
		name:    name,
		k:       k,
		params:  params,
		engines: sim.NewResource(k, name+".dma", params.Parallelism),
		stats:   NewStats(),
	}
}

// Name returns the device name.
func (d *NVRAM) Name() string { return d.name }

// Stats returns accumulated metrics.
func (d *NVRAM) Stats() *Stats { return d.stats }

func (d *NVRAM) svc(size int64) sim.Time {
	return d.params.AccessLatency + sim.Time(size*int64(sim.Second)/d.params.TransferBytesPerSec)
}

// Submit starts io on a free DMA engine.
func (d *NVRAM) Submit(io *IO) {
	io.begin(d, d.k.Now(), nvramDone)
	d.engines.UseCall(&io.job, d.svc(io.Size))
}

func nvramDone(a any) {
	io := a.(*IO)
	d := io.dev.(*NVRAM)
	if io.Write {
		d.stats.NANDBytesWritten.Add(uint64(io.Size))
	}
	io.complete(d.stats, d.k.Now())
}

// Read services a read request: Submit, then Await.
func (d *NVRAM) Read(p *sim.Proc, off, size int64) sim.Time {
	return d.pool.wait(d, p, off, size, false)
}

// Write services a write request: Submit, then Await.
func (d *NVRAM) Write(p *sim.Proc, off, size int64) sim.Time {
	return d.pool.wait(d, p, off, size, true)
}
