// Package device models storage devices as discrete-event service stations:
// flash SSDs with channel parallelism, sustained-state garbage collection
// and a mixed read/write penalty; spinning HDDs with a seek model; and
// µs-class NVRAM used for journals. A RAID0 wrapper aggregates devices into
// one block device, matching the paper's "3 SSDs tied up as RAID 0". A
// request is an IO, started with Submit and served in kernel callbacks, so
// a device holds requests in flight, not processes; Read and Write are the
// process forms.
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

// Device is a block device inside the simulation. Submit starts a request
// that completes by calling its Done; Read and Write are the process forms,
// Submit plus Await, which block the calling process for the device's
// queueing plus service time and return that latency.
type Device interface {
	// Submit starts io. Every event it schedules lands in the (t, seq) slot
	// a process making the same request with Read or Write would use.
	Submit(io *IO)
	// Read fetches size bytes at off.
	Read(p *sim.Proc, off, size int64) sim.Time
	// Write stores size bytes at off.
	Write(p *sim.Proc, off, size int64) sim.Time
	// Name identifies the device in reports.
	Name() string
	// Stats exposes accumulated metrics.
	Stats() *Stats
}

// IO is one request made of a Device with Submit. Its owner keeps it alive
// and may reuse it once Done has run.
type IO struct {
	// Done runs as Done(Arg) when the request completes, after Lat is set.
	// It runs in kernel context and must not block.
	Done func(any)
	Arg  any

	Off, Size int64
	Write     bool
	// Lat is the request's device latency, queueing included.
	Lat sim.Time

	// The serving device's state of the request in flight (a RAID0 sets
	// only start, and keeps the rest in a raidReq).
	dev   Device
	start sim.Time
	job   sim.Job // the service in flight; its Arg is the IO
	amp   float64 // SSD write: NAND bytes per host byte
}

// begin starts dev's service of io: it records the serving device and the
// start time, and points io's job at done.
func (io *IO) begin(dev Device, now sim.Time, done func(any)) {
	io.dev, io.start = dev, now
	io.job.Done, io.job.Arg = done, io
}

// complete sets io's latency, records it in st, and runs Done.
func (io *IO) complete(st *Stats, now sim.Time) {
	io.Lat = now - io.start
	if io.Write {
		st.Writes.Inc()
		st.BytesWritten.Add(uint64(io.Size))
		st.WriteLat.Record(int64(io.Lat))
	} else {
		st.Reads.Inc()
		st.BytesRead.Add(uint64(io.Size))
		st.ReadLat.Record(int64(io.Lat))
	}
	io.Done(io.Arg)
}

// ioPool recycles the IOs of a device's process-form requests.
type ioPool struct{ free sim.FreeList[IO] }

// wait makes a request of d on behalf of p and returns its latency: it is
// Submit with sim.Wake, then Await.
func (pl *ioPool) wait(d Device, p *sim.Proc, off, size int64, write bool) sim.Time {
	io := pl.free.Get()
	io.Done, io.Arg, io.Off, io.Size, io.Write = sim.Wake, p, off, size, write
	d.Submit(io)
	p.Await()
	lat := io.Lat
	io.Arg = nil
	pl.free.Put(io)
	return lat
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
// multi-SSD block devices. A request that fits in one stripe is routed
// whole to the member owning its starting offset (fine for the <= 64 KiB
// requests the experiments use); a larger one is split into one
// contiguous segment per member, served in parallel.
type RAID0 struct {
	k          *sim.Kernel
	name       string
	members    []Device
	stripeSize int64
	stats      *Stats
	fault      FaultHook
	free       sim.FreeList[raidReq]
	pool       ioPool
}

// raidReq is the array's state of one request in flight: the member
// requests it was split into, and how many are outstanding.
type raidReq struct {
	r    *RAID0
	io   *IO
	segs []IO
	left int
}

// SetFaultHook installs (or, with nil, removes) a fault injector covering
// the whole array — the granularity at which an OSD sees its data device
// degrade.
func (r *RAID0) SetFaultHook(h FaultHook) { r.fault = h }

// NewRAID0 aggregates members with the given stripe size (bytes).
func NewRAID0(k *sim.Kernel, name string, stripeSize int64, members ...Device) *RAID0 {
	if len(members) == 0 {
		panic("device: RAID0 needs at least one member")
	}
	if stripeSize <= 0 {
		panic("device: RAID0 stripe size must be positive")
	}
	return &RAID0{k: k, name: name, members: members, stripeSize: stripeSize, stats: NewStats()}
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

// segments returns one member request per member that [off, off+size)
// touches, in the order the request first touches them, reusing segs'
// array.
// Within a multi-stripe request each member's stripes are adjacent in its
// dense address space, so a member's share is a single extent — which is
// what keeps large sequential streams sequential *per device*. Stripe s
// belongs to member s mod n, so the i-th stripe of the request extends the
// (i mod n)-th segment.
func (r *RAID0) segments(segs []IO, off, size int64, write bool) []IO {
	segs = segs[:0]
	n := int64(len(r.members))
	first := off / r.stripeSize
	for pos := off; pos < off+size; {
		stripe := pos / r.stripeSize
		end := (stripe + 1) * r.stripeSize
		if end > off+size {
			end = off + size
		}
		if i := stripe - first; i < n {
			d, moff := r.route(pos)
			segs = append(segs, IO{dev: d, Off: moff, Size: end - pos, Write: write})
		} else {
			segs[i%n].Size += end - pos
		}
		pos = end
	}
	return segs
}

// Submit starts io on the members. A request with one segment goes to its
// member, and continues the array request when the member completes it.
// Otherwise each segment is submitted from its own event, in the slot a
// per-segment process's start took, and the last segment to complete
// continues the array request from one more event, in the slot where a
// joining process would be woken.
func (r *RAID0) Submit(io *IO) {
	io.start = r.k.Now()
	rq := r.free.Get()
	rq.r, rq.io = r, io
	if io.Size <= r.stripeSize {
		d, moff := r.route(io.Off)
		rq.segs = append(rq.segs[:0], IO{dev: d, Off: moff, Size: io.Size, Write: io.Write})
	} else {
		rq.segs = r.segments(rq.segs, io.Off, io.Size, io.Write)
	}
	rq.left = len(rq.segs)
	for i := range rq.segs {
		rq.segs[i].Done, rq.segs[i].Arg = raidSegDone, rq
	}
	if rq.left == 1 {
		raidSegStart(&rq.segs[0])
		return
	}
	for i := range rq.segs {
		r.k.AfterCall(0, raidSegStart, &rq.segs[i])
	}
}

func raidSegStart(a any) {
	seg := a.(*IO)
	seg.dev.Submit(seg)
}

// raidSegDone counts a member request down; the last one continues the
// array request.
func raidSegDone(a any) {
	rq := a.(*raidReq)
	if rq.left--; rq.left > 0 {
		return
	}
	if len(rq.segs) == 1 {
		raidJoined(rq)
		return
	}
	rq.r.k.AfterCall(0, raidJoined, rq)
}

// raidJoined completes the array request, serving the fault hook's extra
// latency first.
func raidJoined(a any) {
	rq := a.(*raidReq)
	r, io := rq.r, rq.io
	if r.fault != nil {
		lat := r.k.Now() - io.start
		var extra sim.Time
		if io.Write {
			extra = r.fault.WriteDelay(lat, io.Size)
		} else {
			extra = r.fault.ReadDelay(lat, io.Size)
		}
		if extra > 0 {
			r.k.AfterCall(extra, raidDone, rq)
			return
		}
	}
	raidDone(rq)
}

func raidDone(a any) {
	rq := a.(*raidReq)
	r, io := rq.r, rq.io
	rq.io = nil
	r.free.Put(rq)
	io.complete(r.stats, r.k.Now())
}

// Read stripes the request across members: Submit, then Await.
func (r *RAID0) Read(p *sim.Proc, off, size int64) sim.Time {
	return r.pool.wait(r, p, off, size, false)
}

// Write stripes the request across members: Submit, then Await.
func (r *RAID0) Write(p *sim.Proc, off, size int64) sim.Time {
	return r.pool.wait(r, p, off, size, true)
}
