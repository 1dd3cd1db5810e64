// Package journal models Ceph's write-ahead journal: a fixed-size ring on a
// fast device (NVRAM in the paper's testbed). Writes reserve ring space,
// are written with direct I/O, and the space is returned only when the
// filestore has applied the transaction ("journal trim").
//
// The ring-full behaviour matters for Figure 10: AFCeph is fast enough to
// fill the 2 GB/OSD journal at ≥40 VMs, at which point submitters block
// until the filestore drains — the performance dip and fluctuation the
// paper reports. Community Ceph never fills it ("its slow performance does
// not generate journal data to fill up the NVRAM").
package journal

import (
	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/stats"
)

// BlockSize is the journal's write alignment (Ceph uses the device block
// size; entries are padded).
const BlockSize = 4096

// Stats aggregates journal activity.
type Stats struct {
	Writes     stats.Counter
	Bytes      stats.Counter
	FullStalls stats.Counter // submits that blocked on a full ring
	StallTime  stats.Counter // ns spent blocked
}

// Journal is a ring-buffer write-ahead log.
type Journal struct {
	k     *sim.Kernel
	name  string
	dev   device.Device
	size  int64
	space *sim.Semaphore
	head  int64
	free  sim.FreeList[Write] // Submit's requests, for reuse
	stats Stats
}

// New creates a journal of `size` bytes on dev.
func New(k *sim.Kernel, name string, dev device.Device, size int64) *Journal {
	if size < BlockSize {
		panic("journal: size smaller than one block")
	}
	return &Journal{
		k:     k,
		name:  name,
		dev:   dev,
		size:  size,
		space: sim.NewSemaphore(k, name+".space", size),
	}
}

// Stats returns live statistics.
func (j *Journal) Stats() *Stats { return &j.stats }

// Size returns the ring capacity in bytes.
func (j *Journal) Size() int64 { return j.size }

// Free returns currently unreserved bytes.
func (j *Journal) Free() int64 { return j.space.Available() }

// align pads an entry to the journal block size.
func align(n int64) int64 {
	return (n + BlockSize - 1) / BlockSize * BlockSize
}

// Submit reserves space for an entry of `bytes` payload (padded to the
// block size), writes it to the journal device, and returns the padded
// size. The caller must later pass that size to Trim when the transaction
// has been applied to the filestore. Submit blocks while the ring is full.
// It is SubmitCall with sim.Wake, then Await.
func (j *Journal) Submit(p *sim.Proc, bytes int64) int64 { //afvet:allow unused cmd/afperf calls it
	w := j.free.Get()
	w.Done, w.Arg, w.Bytes = sim.Wake, p, bytes
	j.SubmitCall(w) //afvet:allow poolsafe the request is done with w once Await returns, before w is freed
	p.Await()
	padded := w.Padded
	w.Arg = nil
	j.free.Put(w)
	return padded
}

// Write is one Submit made by a callback chain (see SubmitCall). Its owner
// keeps it alive, and may reuse it once Done has run.
type Write struct {
	// Done runs as Done(Arg) once the entry is on the journal device,
	// after Padded is set. It runs in kernel context and must not block.
	Done func(any)
	Arg  any
	// Bytes is the entry's payload; Padded is the ring space it took,
	// which the caller passes to Trim once the entry is applied.
	Bytes, Padded int64

	j  *Journal
	t0 sim.Time // when the entry began to wait for ring space
	io device.IO
}

// SubmitCall is Submit for callback models: it reserves ring space for
// w's entry, waiting while the ring is full, writes the entry and runs
// w.Done, each in the event slot Submit's process would use.
func (j *Journal) SubmitCall(w *Write) {
	w.Padded = align(w.Bytes)
	if w.Padded > j.size {
		panic("journal: entry larger than ring")
	}
	w.j = j
	w.io.Done, w.io.Arg = submitWritten, w
	if j.space.TryAcquire(w.Padded) {
		j.write(w)
		return
	}
	j.stats.FullStalls.Inc()
	w.t0 = j.k.Now()
	if j.space.AcquireCall(w.Padded, submitGranted, w) {
		submitGranted(w)
	}
}

func submitGranted(a any) {
	w := a.(*Write)
	w.j.stats.StallTime.Add(uint64(w.j.k.Now() - w.t0))
	w.j.write(w)
}

// write puts w's entry at the ring head on the journal device.
func (j *Journal) write(w *Write) {
	off := j.head % j.size
	j.head += w.Padded
	w.io.Off, w.io.Size, w.io.Write = off, w.Padded, true
	j.dev.Submit(&w.io)
}

func submitWritten(a any) {
	w := a.(*Write)
	w.j.stats.Writes.Inc()
	w.j.stats.Bytes.Add(uint64(w.Padded))
	w.Done(w.Arg)
}

// Trim releases `padded` bytes reserved by a prior Submit.
func (j *Journal) Trim(padded int64) {
	j.space.Release(padded)
}

// ReserveRecovered re-reserves ring space for an entry that is already on
// the journal device — used when a crashed OSD reopens its retained journal
// and must account for entries written before the crash but not yet applied
// to the filestore. No device I/O is charged (the data is already there);
// the caller Trims the same padded size once the entry is replayed.
func (j *Journal) ReserveRecovered(padded int64) {
	if !j.space.TryAcquire(padded) {
		panic("journal: recovered entries exceed ring capacity")
	}
	j.head += padded
}
