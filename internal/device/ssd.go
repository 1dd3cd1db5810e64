package device

import (
	"math"

	"repro/internal/rng"
	"repro/internal/sim"
)

// pow075 returns x^0.75, the empirical size-scaling exponent for sustained
// random writes.
func pow075(x float64) float64 { return math.Pow(x, 0.75) }

// SSDParams configures the flash model. The defaults approximate a
// SATA3-era datacenter SSD of the kind used in the paper (the paper's
// 3-SSD RAID0 block device sustains ~30K 4K write IOPS).
type SSDParams struct {
	// Channels is the number of independent flash channels (parallel
	// in-flight operations the device can service).
	Channels int64
	// ReadBase is the 4 KiB read service time per channel.
	ReadBase sim.Time
	// WriteBaseClean is the 4 KiB program time with a fresh FTL.
	WriteBaseClean sim.Time
	// WriteBaseSustained is the effective 4 KiB program time once the drive
	// is filled and steady-state garbage collection is running.
	WriteBaseSustained sim.Time
	// WriteBaseSeq is the per-op cost for writes the FTL recognizes as
	// stream-sequential (log appends, flushes, large copies). Sequential
	// streams bypass steady-state GC pressure even on a sustained drive.
	WriteBaseSeq sim.Time
	// ReadBaseSeq is the per-op cost for stream-sequential reads.
	ReadBaseSeq sim.Time
	// Streams is how many concurrent sequential streams the FTL write
	// buffer tracks; SeqWindow is the offset adjacency window.
	Streams   int
	SeqWindow int64
	// LargeIOThreshold: requests at least this large are treated as
	// stream-class even without tracker affinity — they program whole
	// pages/superblocks, so sustained-state GC interleaving does not apply.
	LargeIOThreshold int64
	// TransferBytesPerSec models the channel/interface transfer rate used
	// for the size-proportional part of service time.
	TransferBytesPerSec int64
	// MixedReadPenalty multiplies read service time by
	// (1 + MixedReadPenalty * busyWriteFraction): reads stall behind
	// program/erase operations (Park & Shen, FAST'12 [15]).
	MixedReadPenalty float64
	// GCStallProb is the per-write probability of hitting a garbage
	// collection pause in sustained state.
	GCStallProb float64
	// GCStallMin is the minimum GC pause; pauses are Pareto-distributed
	// above it with shape GCStallShape.
	GCStallMin   sim.Time
	GCStallShape float64
	// WriteAmpClean / WriteAmpSustained scale NAND bytes written per host
	// byte (accounting only; service impact is in WriteBaseSustained).
	WriteAmpClean     float64
	WriteAmpSustained float64
	// NoiseSigma is the lognormal sigma applied to every service time.
	NoiseSigma float64
}

// DefaultSSDParams returns the calibrated SATA3-class parameters.
// With 4 channels and a 95 µs read, a single SSD peaks near 42K 4K read
// IOPS; with a 380 µs sustained write, near 10.5K 4K write IOPS, so a
// 3-SSD RAID0 sustains ≈30K — the figure the paper uses to size throttles.
func DefaultSSDParams() SSDParams {
	return SSDParams{
		Channels:            4,
		ReadBase:            95 * sim.Microsecond,
		WriteBaseClean:      110 * sim.Microsecond,
		WriteBaseSustained:  380 * sim.Microsecond,
		WriteBaseSeq:        35 * sim.Microsecond,
		ReadBaseSeq:         30 * sim.Microsecond,
		Streams:             8,
		SeqWindow:           512 << 10,
		LargeIOThreshold:    128 << 10,
		TransferBytesPerSec: 450 << 20, // ~450 MB/s SATA3 payload rate
		MixedReadPenalty:    3.0,
		GCStallProb:         0.004,
		GCStallMin:          2 * sim.Millisecond,
		GCStallShape:        1.8,
		WriteAmpClean:       1.05,
		WriteAmpSustained:   2.6,
		NoiseSigma:          0.08,
	}
}

// SSD is a flash device with channel-level parallelism.
type SSD struct {
	name      string
	k         *sim.Kernel
	params    SSDParams
	channels  *sim.Resource
	bus       *sim.Resource // host interface: transfers serialize here
	rnd       *rng.Rand
	sustained bool
	stats     *Stats

	busyWrites int64 // writes currently in service or queued
	pool       ioPool

	// FTL stream tracker: end offsets of recently seen sequential streams.
	wStreams []int64
	rStreams []int64
	evictW   int
	evictR   int
}

// seqHit reports whether off continues one of the tracked streams and
// advances that stream to end. Misses install a new stream (LRU-ish ring
// eviction), so a fresh stream becomes "sequential" from its second access.
func seqHit(streams []int64, evict *int, window, off, end int64) ([]int64, bool) {
	for i, sEnd := range streams {
		d := off - sEnd
		if d < 0 {
			d = -d
		}
		if d <= window {
			streams[i] = end
			return streams, true
		}
	}
	if len(streams) < cap(streams) {
		streams = append(streams, end)
		return streams, false
	}
	streams[*evict] = end
	*evict = (*evict + 1) % len(streams)
	return streams, false
}

// NewSSD creates an SSD in clean state.
func NewSSD(k *sim.Kernel, name string, params SSDParams, r *rng.Rand) *SSD {
	if params.Channels < 1 {
		panic("device: SSD needs at least one channel")
	}
	nStreams := params.Streams
	if nStreams < 1 {
		nStreams = 1
	}
	return &SSD{
		name:     name,
		k:        k,
		params:   params,
		channels: sim.NewResource(k, name+".chan", params.Channels),
		bus:      sim.NewResource(k, name+".bus", 1),
		rnd:      r.Fork(),
		stats:    NewStats(),
		wStreams: make([]int64, 0, nStreams),
		rStreams: make([]int64, 0, nStreams),
	}
}

// Name returns the device name.
func (d *SSD) Name() string { return d.name }

// Stats returns accumulated metrics.
func (d *SSD) Stats() *Stats { return d.stats }

// SetSustained switches between clean and sustained (steady-state) flash
// behaviour. The paper evaluates both states explicitly.
func (d *SSD) SetSustained(v bool) { d.sustained = v }

func (d *SSD) noise(t sim.Time) sim.Time {
	if d.params.NoiseSigma <= 0 {
		return t
	}
	return sim.Time(float64(t) * d.rnd.LogNormal(0, d.params.NoiseSigma))
}

func (d *SSD) transfer(size int64) sim.Time {
	return sim.Time(size * int64(sim.Second) / d.params.TransferBytesPerSec)
}

// Submit starts io: a channel service, then the transfer on the host bus.
// The service time, its rng draws and the stream and mixed-load state are
// taken at submission, as a process's Read or Write takes them on entry.
func (d *SSD) Submit(io *IO) {
	io.begin(d, d.k.Now(), ssdChannelDone)
	if io.Write {
		svc := d.writeService(io)
		d.busyWrites++
		d.channels.UseCall(&io.job, svc)
		return
	}
	d.channels.UseCall(&io.job, d.readService(io.Off, io.Size))
}

// ssdChannelDone moves a request from its channel to the host-interface
// transfer: all of the device's traffic shares the bus.
func ssdChannelDone(a any) {
	io := a.(*IO)
	d := io.dev.(*SSD)
	if io.Write {
		d.busyWrites--
	}
	io.job.Done = ssdBusDone
	d.bus.UseCall(&io.job, d.transfer(io.Size))
}

func ssdBusDone(a any) {
	io := a.(*IO)
	d := io.dev.(*SSD)
	if io.Write {
		d.stats.NANDBytesWritten.Add(uint64(float64(io.Size) * io.amp))
	}
	io.complete(d.stats, d.k.Now())
}

// readService draws the channel service time of a read.
func (d *SSD) readService(off, size int64) sim.Time {
	base := d.params.ReadBase
	var seq bool
	d.rStreams, seq = seqHit(d.rStreams, &d.evictR, d.params.SeqWindow, off, off+size)
	if d.params.LargeIOThreshold > 0 && size >= d.params.LargeIOThreshold {
		seq = true
	}
	if seq && d.params.ReadBaseSeq > 0 {
		base = d.params.ReadBaseSeq
	}
	svc := base
	// Mixed read/write penalty: reads behind in-flight writes are delayed
	// by program/erase operations occupying the channels.
	if d.busyWrites > 0 {
		frac := float64(d.busyWrites) / float64(d.params.Channels)
		if frac > 1 {
			frac = 1
		}
		svc = sim.Time(float64(svc) * (1 + d.params.MixedReadPenalty*frac))
	}
	return d.noise(svc)
}

// writeService draws the channel service time of a write and sets io's
// write amplification.
func (d *SSD) writeService(io *IO) sim.Time {
	off, size := io.Off, io.Size
	base := d.params.WriteBaseClean
	amp := d.params.WriteAmpClean
	if d.sustained {
		base = d.params.WriteBaseSustained
		amp = d.params.WriteAmpSustained
	}
	var seq bool
	d.wStreams, seq = seqHit(d.wStreams, &d.evictW, d.params.SeqWindow, off, off+size)
	if d.params.LargeIOThreshold > 0 && size >= d.params.LargeIOThreshold {
		seq = true
	}
	if seq && d.params.WriteBaseSeq > 0 {
		// Stream-sequential writes fill FTL write buffers and superblocks
		// in order: cheap even in sustained state, and no GC interleaving.
		base = d.params.WriteBaseSeq
		amp = d.params.WriteAmpClean
	} else if d.sustained && size > 4096 {
		// Sustained random writes larger than a page spread GC pressure
		// across multiple blocks: service grows super-linearly with size
		// (a SATA drive that does ~40 MB/s of 4K random sustains well
		// under 100 MB/s of 32K random, not the naive 8x).
		pages := float64(size) / 4096
		base = sim.Time(float64(base) * pow075(pages))
	}
	io.amp = amp
	svc := base
	if d.sustained && !seq && d.rnd.Bool(d.params.GCStallProb) {
		stall := sim.Time(d.rnd.Pareto(float64(d.params.GCStallMin), d.params.GCStallShape))
		// Cap pathological tail stalls at 50ms to keep the model realistic.
		if stall > 50*sim.Millisecond {
			stall = 50 * sim.Millisecond
		}
		svc += stall
		d.stats.GCStalls.Inc()
	}
	return d.noise(svc)
}

// Read services a read request: Submit, then Await.
func (d *SSD) Read(p *sim.Proc, off, size int64) sim.Time {
	return d.pool.wait(d, p, off, size, false)
}

// Write services a write request: Submit, then Await.
func (d *SSD) Write(p *sim.Proc, off, size int64) sim.Time {
	return d.pool.wait(d, p, off, size, true)
}
