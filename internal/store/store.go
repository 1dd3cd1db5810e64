// Package store defines the seam between the OSD engine and its object
// store backend. The OSD pipeline (messenger, OP_WQ, replication,
// completion dispatch) is backend-neutral: a write flows through
// CommitCall/Committed (make it durable, write-ahead) and
// ApplyCall/Applied (land it in the object store, release write-ahead
// space). Each pair is split so the OSD can run its crash-generation check
// between the I/O half and the bookkeeping half — a daemon that died
// mid-I/O must not touch shared state when its chain resumes.
//
// The seam holds only what differs between the backends. Both keep object
// bookkeeping (sizes, versions, stamps, damage) in one
// filestore.FileStore that the OSD owns, so reads, scrub, recovery and
// repair call that table directly.
//
// Two backends implement the seam:
//
//   - FileStoreBackend: the paper's journal + filestore pair — full data
//     journaling into an NVRAM ring, then a filestore apply (the classic
//     double-write).
//   - DirectStore: a BlueStore-style direct-write backend — small writes
//     ride the KV store's WAL and are flushed to the device after the ack;
//     large writes go straight to the device extent with a metadata-only
//     KV commit. No journal double-write.
package store

import (
	"fmt"

	"repro/internal/cpumodel"
	"repro/internal/device"
	"repro/internal/filestore"
	"repro/internal/journal"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Backend names accepted by osd.Config.Backend and the -backend flags.
const (
	BackendFileStore   = "filestore"
	BackendDirectStore = "directstore"
)

// CheckBackend reports a backend name the OSD cannot build. The empty name
// selects the default, filestore.
func CheckBackend(name string) error {
	switch name {
	case "", BackendFileStore, BackendDirectStore:
		return nil
	}
	return fmt.Errorf("unknown backend %q (want %s or %s)", name, BackendFileStore, BackendDirectStore)
}

// Txn is one logical write moving through the OSD pipeline, and the
// request CommitCall and ApplyCall make of it. The exported fields are
// filled by the OSD when the write is accepted; the unexported ones are
// backend state threaded from CommitCall to Applied.
type Txn struct {
	// Done runs as Done(Arg) when CommitCall or ApplyCall is over. It runs
	// in kernel context and must not block.
	Done func(any)
	Arg  any

	PG    uint32
	Seq   uint64
	OID   string
	Off   int64
	Len   int64
	Stamp uint64
	// Bytes is the write-ahead payload (data + journal header) for
	// backends that log full data images; DirectStore sizes its own WAL
	// records and ignores it.
	Bytes int64

	pad    int64  // FileStoreBackend: padded ring bytes reserved by CommitCall
	small  bool   // DirectStore: payload rides the KV WAL (deferred write)
	walKey string // DirectStore: deferred-write WAL key
	ret    *retained

	// The requests of the call in flight.
	jw   journal.Write // FileStoreBackend: the journal entry
	ds   *DirectStore
	ops  []kvstore.Op // DirectStore: the KV batch
	work cpumodel.Work
	io   device.IO
	kv   kvstore.Batch
	then func(*Txn) // DirectStore: run once the KV batch is applied
}

// ReplayHooks let Replay call back into OSD bookkeeping without the store
// package knowing about PG logs or transaction pools.
type ReplayHooks struct {
	// BuildMeta builds the metadata transaction for one replayed write
	// (backends that commit metadata before the crash pass on it).
	BuildMeta func(pg uint32, oid string, off, length int64, stamp uint64) *filestore.Transaction
	// Applied is called after each replayed entry lands; meta is the
	// transaction from BuildMeta, or nil when none was built.
	Applied func(pg uint32, seq uint64, meta *filestore.Transaction)
}

// Backend is an object store driving the durable half of the OSD write
// path. CommitCall and ApplyCall are the I/O halves, run by callback
// chains. Committed and Applied are the bookkeeping halves, run only when
// the daemon generation still matches.
type Backend interface {
	// Name returns the backend selector string.
	Name() string
	// MetaAtCommit reports when the OSD must build a write's metadata
	// transaction: before CommitCall (the backend commits metadata with
	// the data) or before ApplyCall (metadata lands at apply time, behind a
	// full-data write-ahead log).
	MetaAtCommit() bool
	// Reopen builds the per-generation write-ahead state (a fresh ring
	// for the journaled backend); called at construction and on Restart.
	Reopen(gen string)
	// CommitCall makes t durable, waiting while write-ahead space is
	// exhausted, then runs t.Done. meta is non-nil iff MetaAtCommit.
	// Every event lands in the slot a process committing t would use.
	CommitCall(t *Txn, meta *filestore.Transaction)
	// Committed records t as durable-but-unapplied (the crash-replay
	// image) and makes it visible to reads where the backend commits
	// object state up front.
	Committed(t *Txn)
	// ApplyCall lands t in the object store, then runs t.Done (inline
	// when there is nothing to wait for). meta is non-nil iff
	// !MetaAtCommit.
	ApplyCall(t *Txn, meta *filestore.Transaction)
	// Applied releases t's write-ahead space and drops it from the
	// replay image.
	Applied(t *Txn)
	// Replay re-lands every committed-but-unapplied entry after a crash,
	// in commit order, and returns how many entries it replayed.
	Replay(p *sim.Proc, h ReplayHooks) int
	// UnappliedSeqs visits the PG sequence of every
	// committed-but-unapplied entry (the durable horizon on a crash).
	UnappliedSeqs(fn func(pg uint32, seq uint64))
	// PendingOps counts committed-but-unapplied entries.
	PendingOps() int
	// PendingBytes is the write-ahead space currently held by pending
	// entries; zero once the pipeline has fully drained.
	PendingBytes() int64
	// WALFullStalls counts commits that blocked on exhausted write-ahead
	// space (ring full, or KV write stall).
	WALFullStalls() uint64
	// RegisterMetrics publishes the backend's own subsystem (the journal,
	// or the direct-write counters) under prefix (e.g. "osd.3"),
	// perf-dump style.
	RegisterMetrics(r *metrics.Registry, prefix string)
}

// retained mirrors one committed-but-not-yet-applied transaction: the
// crash-survivable image of the write-ahead log. On a crash every
// unapplied entry is replayed at Restart, which is what makes an ack
// (sent after CommitCall) durable across the crash.
type retained struct {
	pg      uint32
	seq     uint64
	oid     string
	off     int64
	length  int64
	stamp   uint64
	pad     int64
	small   bool
	walKey  string
	applied bool
}

// replayLog is the committed-but-unapplied bookkeeping shared by both
// backends, with a free list for the hot path (a DES kernel runs one
// process at a time, so no locking).
type replayLog struct {
	entries []*retained
	free    sim.FreeList[retained]
}

func (l *replayLog) put(r *retained) {
	*r = retained{}
	l.free.Put(r)
}

// retain records t as committed-but-unapplied and links the entry to the
// transaction so the apply path can mark it applied.
func (l *replayLog) retain(t *Txn) *retained {
	ret := l.free.Get()
	ret.pg, ret.seq, ret.pad = t.PG, t.Seq, t.pad
	ret.oid, ret.off, ret.length, ret.stamp = t.OID, t.Off, t.Len, t.Stamp
	ret.small, ret.walKey = t.small, t.walKey
	t.ret = ret
	l.entries = append(l.entries, ret)
	return ret
}

// compact drops the applied prefix, matching the write-ahead trim order
// (commit order == retained order). Survivors are copied down in place so
// the backing array keeps being reused — reslicing forward would strand
// the freed prefix and force retain into a fresh allocation every cycle.
func (l *replayLog) compact() {
	i := 0
	for i < len(l.entries) && l.entries[i].applied {
		// Applied entries have exactly one writer (the worker that
		// applied them), which has finished; safe to recycle.
		l.put(l.entries[i])
		i++
	}
	if i == 0 {
		return
	}
	n := copy(l.entries, l.entries[i:])
	for j := n; j < len(l.entries); j++ {
		l.entries[j] = nil
	}
	l.entries = l.entries[:n]
}

// unapplied visits every pending entry's PG sequence.
func (l *replayLog) unapplied(fn func(pg uint32, seq uint64)) {
	for _, e := range l.entries {
		if !e.applied {
			fn(e.pg, e.seq)
		}
	}
}

// pendingOps counts unapplied entries.
func (l *replayLog) pendingOps() int {
	n := 0
	for _, e := range l.entries {
		if !e.applied {
			n++
		}
	}
	return n
}

// takePending returns the unapplied entries in commit order and resets
// the log. Entries are NOT recycled: a worker of a crashed generation may
// still hold a reference and mark one applied when it resumes.
func (l *replayLog) takePending() []*retained {
	var pending []*retained
	for _, e := range l.entries {
		if !e.applied {
			pending = append(pending, e)
		}
	}
	l.entries = nil
	return pending
}
