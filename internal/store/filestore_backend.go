package store

import (
	"repro/internal/device"
	"repro/internal/filestore"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// FileStoreBackend is the classic journal + filestore pair: every write is
// journaled in full (data + header, padded to the ring block size) on the
// NVRAM device, acked once the journal write lands, and applied to the
// filestore afterwards — the double-write the paper's testbed uses and the
// DirectStore backend eliminates.
type FileStoreBackend struct {
	k     *sim.Kernel
	fs    *filestore.FileStore
	jdev  device.Device
	jsize int64
	jrnl  *journal.Journal
	rlog  replayLog
}

// NewFileStoreBackend wraps fs and a journal ring of jsize bytes on jdev.
// The ring itself is built by Reopen (it is per-daemon-generation).
func NewFileStoreBackend(k *sim.Kernel, fs *filestore.FileStore, jdev device.Device, jsize int64) *FileStoreBackend {
	return &FileStoreBackend{k: k, fs: fs, jdev: jdev, jsize: jsize}
}

// Name returns "filestore".
func (b *FileStoreBackend) Name() string { return BackendFileStore }

// MetaAtCommit is false: the journal logs the full data image, so the
// metadata transaction is built at apply time (keeping PG-log KV keys in
// apply order).
func (b *FileStoreBackend) MetaAtCommit() bool { return false }

// Reopen builds a fresh (empty) journal ring for the daemon generation.
// The previous generation's ring is abandoned with its engine.
func (b *FileStoreBackend) Reopen(gen string) {
	b.jrnl = journal.New(b.k, gen+".journal", b.jdev, b.jsize)
}

// Journal exposes the ring of the current generation.
func (b *FileStoreBackend) Journal() *journal.Journal { return b.jrnl }

// CommitCall writes the entry to the journal ring, waiting while it is
// full.
func (b *FileStoreBackend) CommitCall(t *Txn, _ *filestore.Transaction) {
	t.jw.Done, t.jw.Arg, t.jw.Bytes = fbCommitted, t, t.Bytes
	b.jrnl.SubmitCall(&t.jw)
}

func fbCommitted(a any) {
	t := a.(*Txn)
	t.pad = t.jw.Padded
	t.Done(t.Arg)
}

// Committed retains the entry's image for crash replay until the apply
// lands.
func (b *FileStoreBackend) Committed(t *Txn) { b.rlog.retain(t) }

// ApplyCall lands the transaction in the filestore. The retained entry is
// marked applied even if the daemon died mid-I/O: the apply completed, and
// a possible duplicate replay is healed by the dirty-restart backfill.
func (b *FileStoreBackend) ApplyCall(t *Txn, meta *filestore.Transaction) {
	meta.Done, meta.Arg = fbApplied, t
	b.fs.ApplyCall(meta)
}

func fbApplied(a any) {
	t := a.(*Txn)
	if t.ret != nil {
		t.ret.applied = true
	}
	t.Done(t.Arg)
}

// Applied trims the entry's ring space and compacts the replay image.
func (b *FileStoreBackend) Applied(t *Txn) {
	b.jrnl.Trim(t.pad)
	b.rlog.compact()
}

// Replay re-reserves ring space for every journaled-but-unapplied entry
// (the data is already on the journal device) and applies each to the
// filestore in journal order.
func (b *FileStoreBackend) Replay(p *sim.Proc, h ReplayHooks) int {
	pending := b.rlog.takePending()
	for _, e := range pending {
		b.jrnl.ReserveRecovered(e.pad)
	}
	n := 0
	for _, e := range pending {
		meta := h.BuildMeta(e.pg, e.oid, e.off, e.length, e.stamp)
		b.fs.Apply(p, meta)
		e.applied = true
		h.Applied(e.pg, e.seq, meta)
		b.jrnl.Trim(e.pad)
		n++
	}
	return n
}

// UnappliedSeqs visits the journaled-but-unapplied entries.
func (b *FileStoreBackend) UnappliedSeqs(fn func(pg uint32, seq uint64)) { b.rlog.unapplied(fn) }

// PendingOps counts journaled-but-unapplied entries.
func (b *FileStoreBackend) PendingOps() int { return b.rlog.pendingOps() }

// PendingBytes is the reserved (untrimmed) ring space.
func (b *FileStoreBackend) PendingBytes() int64 { return b.jrnl.Size() - b.jrnl.Free() }

// WALFullStalls counts journal submissions that blocked on a full ring.
func (b *FileStoreBackend) WALFullStalls() uint64 { return b.jrnl.Stats().FullStalls.Value() }

// RegisterMetrics publishes the journal.
func (b *FileStoreBackend) RegisterMetrics(r *metrics.Registry, prefix string) {
	b.jrnl.RegisterMetrics(r.Sub(prefix + ".journal"))
}
