// Package device models storage devices as discrete-event service stations:
// flash SSDs with channel parallelism, sustained-state garbage collection
// and a mixed read/write penalty; spinning HDDs with a seek model; and
// µs-class NVRAM used for journals. A RAID0 wrapper aggregates devices into
// one block device, matching the paper's "3 SSDs tied up as RAID 0".
//
// The models reproduce the device *behaviours* the paper's analysis relies
// on (flash parallelism, clean-vs-sustained degradation, reads slowing down
// under concurrent writes, HDD seek dominance) rather than any specific
// product's datasheet.
package device

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// Stats aggregates operation counts and latency distributions for a device.
type Stats struct {
	Reads        stats.Counter
	Writes       stats.Counter
	BytesRead    stats.Counter
	BytesWritten stats.Counter
	// NANDBytesWritten includes device-internal write amplification
	// (garbage-collection rewrites); >= BytesWritten on flash.
	NANDBytesWritten stats.Counter
	GCStalls         stats.Counter
	ReadLat          *stats.Histogram
	WriteLat         *stats.Histogram
}

// NewStats returns initialized device statistics.
func NewStats() *Stats {
	return &Stats{ReadLat: stats.NewHistogram(), WriteLat: stats.NewHistogram()}
}

// Device is a block device inside the simulation. Read and Write block the
// calling process for the device's queueing plus service time and return the
// total elapsed device latency.
type Device interface {
	// Read fetches size bytes at off.
	Read(p *sim.Proc, off, size int64) sim.Time
	// Write stores size bytes at off.
	Write(p *sim.Proc, off, size int64) sim.Time
	// Name identifies the device in reports.
	Name() string
	// Stats exposes accumulated metrics.
	Stats() *Stats
}

// FaultHook injects extra latency into a device's I/O path (slow-disk
// inflation, latent read errors). It is consulted after the fault-free
// service time is known and returns additional latency to serve; a nil
// hook (the default) leaves the device model untouched.
type FaultHook interface {
	// ReadDelay returns extra latency for a read whose fault-free service
	// time was base.
	ReadDelay(base sim.Time, size int64) sim.Time
	// WriteDelay is the write-side analogue.
	WriteDelay(base sim.Time, size int64) sim.Time
}

// RAID0 stripes requests across member devices, modelling the paper's
// multi-SSD block devices. A request is routed whole to the stripe owning
// its starting offset (fine for the <= 64 KiB requests the experiments use).
type RAID0 struct {
	name       string
	members    []Device
	stripeSize int64
	stats      *Stats
	fault      FaultHook
}

// SetFaultHook installs (or, with nil, removes) a fault injector covering
// the whole array — the granularity at which an OSD sees its data device
// degrade.
func (r *RAID0) SetFaultHook(h FaultHook) { r.fault = h }

// NewRAID0 aggregates members with the given stripe size (bytes).
func NewRAID0(name string, stripeSize int64, members ...Device) *RAID0 {
	if len(members) == 0 {
		panic("device: RAID0 needs at least one member")
	}
	if stripeSize <= 0 {
		panic("device: RAID0 stripe size must be positive")
	}
	return &RAID0{name: name, members: members, stripeSize: stripeSize, stats: NewStats()}
}

// Name returns the array name.
func (r *RAID0) Name() string { return r.name }

// Stats returns array-level statistics (member stats remain per-device).
func (r *RAID0) Stats() *Stats { return r.stats }

func (r *RAID0) route(off int64) (Device, int64) {
	stripe := off / r.stripeSize
	member := int(stripe % int64(len(r.members)))
	// Translate to a dense per-member offset so member-local sequentiality
	// is preserved for sequential streams.
	memberOff := (stripe/int64(len(r.members)))*r.stripeSize + off%r.stripeSize
	return r.members[member], memberOff
}

// segment is one member's contiguous share of a striped request.
type segment struct {
	dev   Device
	off   int64
	bytes int64
}

// segments splits [off, off+size) into one contiguous run per member.
// Within a multi-stripe request each member's stripes are adjacent in its
// dense address space, so a member's share is a single extent — which is
// what keeps large sequential streams sequential *per device*.
func (r *RAID0) segments(off, size int64) []segment {
	if size <= r.stripeSize {
		d, moff := r.route(off)
		return []segment{{dev: d, off: moff, bytes: size}}
	}
	segs := make(map[Device]*segment, len(r.members))
	var order []Device
	for pos := off; pos < off+size; {
		stripeEnd := (pos/r.stripeSize + 1) * r.stripeSize
		n := stripeEnd - pos
		if pos+n > off+size {
			n = off + size - pos
		}
		d, moff := r.route(pos)
		if s, ok := segs[d]; ok {
			s.bytes += n
		} else {
			segs[d] = &segment{dev: d, off: moff, bytes: n}
			order = append(order, d)
		}
		pos += n
	}
	out := make([]segment, 0, len(order))
	for _, d := range order {
		out = append(out, *segs[d])
	}
	return out
}

// parallel runs one I/O per member concurrently and returns when all
// segments complete (RAID0 striping parallelism).
func (r *RAID0) parallel(p *sim.Proc, segs []segment, write bool) sim.Time {
	start := p.Now()
	if len(segs) == 1 {
		if write {
			segs[0].dev.Write(p, segs[0].off, segs[0].bytes)
		} else {
			segs[0].dev.Read(p, segs[0].off, segs[0].bytes)
		}
		return p.Now() - start
	}
	k := p.Kernel()
	wg := sim.NewWaitGroup(k)
	for _, s := range segs {
		s := s
		wg.Add(1)
		k.Go(r.name+".stripe", func(sp *sim.Proc) {
			defer wg.Done()
			if write {
				s.dev.Write(sp, s.off, s.bytes)
			} else {
				s.dev.Read(sp, s.off, s.bytes)
			}
		})
	}
	wg.Wait(p)
	return p.Now() - start
}

// stripe services a request on its members: directly on the owning member
// for the single-stripe requests that dominate the experiments (no segment
// list built), via segments+parallel for multi-stripe ones.
func (r *RAID0) stripe(p *sim.Proc, off, size int64, write bool) sim.Time {
	if size <= r.stripeSize {
		start := p.Now()
		d, moff := r.route(off)
		if write {
			d.Write(p, moff, size)
		} else {
			d.Read(p, moff, size)
		}
		return p.Now() - start
	}
	return r.parallel(p, r.segments(off, size), write)
}

// Read stripes the request across members (parallel for multi-stripe ops).
func (r *RAID0) Read(p *sim.Proc, off, size int64) sim.Time {
	lat := r.stripe(p, off, size, false)
	if r.fault != nil {
		if extra := r.fault.ReadDelay(lat, size); extra > 0 {
			p.Sleep(extra)
			lat += extra
		}
	}
	r.stats.Reads.Inc()
	r.stats.BytesRead.Add(uint64(size))
	r.stats.ReadLat.Record(int64(lat))
	return lat
}

// Write stripes the request across members (parallel for multi-stripe ops).
func (r *RAID0) Write(p *sim.Proc, off, size int64) sim.Time {
	lat := r.stripe(p, off, size, true)
	if r.fault != nil {
		if extra := r.fault.WriteDelay(lat, size); extra > 0 {
			p.Sleep(extra)
			lat += extra
		}
	}
	r.stats.Writes.Inc()
	r.stats.BytesWritten.Add(uint64(size))
	r.stats.WriteLat.Record(int64(lat))
	return lat
}
