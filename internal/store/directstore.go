package store

import (
	"strconv"

	"repro/internal/cpumodel"
	"repro/internal/filestore"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
)

const (
	// walThreshold: writes of at most this many bytes ride the KV WAL
	// (deferred write — payload committed with the metadata batch,
	// flushed to the device extent after the ack). Larger writes go
	// straight to the device with a metadata-only KV commit. 64 KiB is
	// BlueStore's deferred threshold generation.
	walThreshold = 64 << 10
	// directSyscallCost is the CPU charge per direct-I/O submission.
	directSyscallCost = 2 * sim.Microsecond
)

// DirectStats aggregates direct-write backend activity.
type DirectStats struct {
	SmallWrites stats.Counter // commits whose payload rode the KV WAL
	LargeWrites stats.Counter // commits written straight to the device
	WALBytes    stats.Counter // payload bytes logged through the KV WAL
	DirectBytes stats.Counter // payload bytes written directly at commit
	Flushes     stats.Counter // deferred payloads flushed at apply
	Replays     stats.Counter // deferred payloads flushed during crash replay
}

// DirectStore is a BlueStore-style backend: the commit point is a single
// batched KV apply (PG log + omap + — for small writes — the data payload
// itself in the WAL), so there is no journal double-write. Small-write
// payloads are flushed from the WAL to their device extent after the ack;
// large writes hit the device extent first and commit metadata only.
// Object bookkeeping (sizes, versions, verification stamps) stays in the
// shared filestore table so reads, scrub and recovery are backend-neutral.
type DirectStore struct {
	k    *sim.Kernel
	fs   *filestore.FileStore
	db   *kvstore.DB
	node *cpumodel.Node

	rlog       replayLog
	walPending int64 // committed-but-unflushed WAL payload bytes
	walSeq     uint64
	keyBuf     []byte
	// walBuf is the payload every small write hands the KV WAL: the store
	// keeps only its length, so one zero buffer of walThreshold bytes
	// serves every write.
	walBuf []byte
	// Scratch pool for KV batches: several commits and flushes can be in
	// flight at once, so a batch is checked out per call rather than
	// shared (cf. Transaction.kvScratch).
	opsFree [][]kvstore.Op

	stats DirectStats
}

// NewDirectStore builds the backend over the filestore's object table,
// device and KV store.
func NewDirectStore(k *sim.Kernel, fs *filestore.FileStore, node *cpumodel.Node) *DirectStore {
	return &DirectStore{k: k, fs: fs, db: fs.DB(), node: node, walBuf: make([]byte, walThreshold)}
}

// Name returns "directstore".
func (d *DirectStore) Name() string { return BackendDirectStore }

// MetaAtCommit is true: metadata commits atomically with (or before) the
// data, in the commit-time KV batch.
func (d *DirectStore) MetaAtCommit() bool { return true }

// Reopen is a no-op: the KV store and device are durable state shared
// across daemon generations; there is no per-generation ring.
func (d *DirectStore) Reopen(string) {}

func (d *DirectStore) getOps() []kvstore.Op {
	if n := len(d.opsFree); n > 0 {
		s := d.opsFree[n-1]
		d.opsFree = d.opsFree[:n-1]
		return s[:0]
	}
	return nil
}

func (d *DirectStore) putOps(s []kvstore.Op) {
	for i := range s {
		s[i] = kvstore.Op{}
	}
	d.opsFree = append(d.opsFree, s)
}

// CommitCall makes the write durable: one batched KV apply carrying the
// PG log entry, the omap mutations and — for small writes — the data
// payload in the WAL. Large writes hit the device extent first, so a crash
// between the data write and the KV commit leaves unreferenced garbage,
// never torn metadata.
func (d *DirectStore) CommitCall(t *Txn, meta *filestore.Transaction) {
	ops := d.getOps()
	t.small = t.Len > 0 && t.Len <= walThreshold
	if t.small {
		d.walSeq++
		b := append(d.keyBuf[:0], "dwal."...)
		b = strconv.AppendUint(b, d.walSeq, 10)
		d.keyBuf = b
		t.walKey = string(b)
		ops = append(ops, kvstore.Op{Key: t.walKey, Value: d.walBuf[:t.Len]})
	}
	if meta.PGLogKey != "" {
		ops = append(ops, kvstore.Op{Key: meta.PGLogKey, Value: meta.PGLogValue})
	}
	t.ops = append(ops, meta.OmapOps...)
	t.ds, t.then = d, txnDone
	if !t.small && t.Len > 0 {
		d.write(t)
		return
	}
	dsApplyOps(t)
}

func txnDone(t *Txn) { t.Done(t.Arg) }

// write charges a direct-I/O submission, then writes t's payload at its
// object's device extent (placed once the charge is paid), then applies
// t.ops.
func (d *DirectStore) write(t *Txn) {
	t.work.Done, t.work.Arg = dsCharged, t
	t.io.Done, t.io.Arg = dsApplyOps, t
	d.node.UseCall(&t.work, directSyscallCost)
}

func dsCharged(a any) {
	t := a.(*Txn)
	d := t.ds
	t.io.Off, t.io.Size, t.io.Write = d.fs.DevOffset(t.OID, t.Off), t.Len, true
	d.fs.Device().Submit(&t.io)
}

// dsApplyOps applies t.ops as one KV batch (a commit's is the durability
// point), then recycles them and runs t.then.
func dsApplyOps(a any) {
	t := a.(*Txn)
	t.kv.Done, t.kv.Arg, t.kv.Ops = dsOpsApplied, t, t.ops
	t.ds.db.ApplyCall(&t.kv)
}

func dsOpsApplied(a any) {
	t := a.(*Txn)
	t.ds.putOps(t.ops)
	t.ops, t.kv.Ops = nil, nil
	t.then(t)
}

// Committed makes the write visible (object table commit) and retains its
// image for crash replay until the deferred flush lands.
func (d *DirectStore) Committed(t *Txn) {
	if t.small {
		d.stats.SmallWrites.Inc()
		d.stats.WALBytes.Add(uint64(t.Len))
		d.walPending += t.Len
	} else {
		d.stats.LargeWrites.Inc()
		if t.Len > 0 {
			d.stats.DirectBytes.Add(uint64(t.Len))
		}
	}
	d.fs.CommitObject(t.OID, t.Off, t.Len, t.Stamp)
	d.rlog.retain(t)
}

// finish marks a retained entry applied exactly once, returning its WAL
// credit. Both the apply path and crash replay can race to finish an entry
// (a worker of a crashed generation resumes mid-apply); whoever gets there
// first wins.
func (d *DirectStore) finish(e *retained) {
	if e.applied {
		return
	}
	e.applied = true
	if e.small {
		d.walPending -= e.length
	}
}

// ApplyCall flushes a small write's payload from the WAL to its device
// extent and deletes the WAL record; large writes were already placed at
// commit, so they complete inline.
func (d *DirectStore) ApplyCall(t *Txn, _ *filestore.Transaction) {
	if t.small {
		d.flush(t, dsApplyFlushed)
		return
	}
	d.applied(t)
}

func dsApplyFlushed(t *Txn) {
	t.ds.stats.Flushes.Inc()
	t.ds.applied(t)
}

// applied returns t's WAL credit and completes the apply.
func (d *DirectStore) applied(t *Txn) {
	if t.ret != nil {
		d.finish(t.ret)
	}
	t.Done(t.Arg)
}

// flush writes a deferred payload from the WAL to its device extent, then
// deletes the WAL record, and runs then.
func (d *DirectStore) flush(t *Txn, then func(*Txn)) {
	t.ds, t.then = d, then
	t.ops = append(d.getOps(), kvstore.Op{Key: t.walKey, Delete: true})
	d.write(t)
}

// Applied compacts the replay image (the WAL credit was returned by ApplyCall).
func (d *DirectStore) Applied(t *Txn) { d.rlog.compact() }

// Replay finishes every committed-but-unflushed deferred write after a
// crash: the payload is durable in the KV WAL, so it is written to its
// device extent and the WAL record deleted. Metadata and object state
// committed before the crash; there is nothing to rebuild for large
// writes.
func (d *DirectStore) Replay(p *sim.Proc, h ReplayHooks) int {
	pending := d.rlog.takePending()
	n := 0
	for _, e := range pending {
		if e.small {
			t := &Txn{Done: sim.Wake, Arg: p, OID: e.oid, Off: e.off, Len: e.length, walKey: e.walKey}
			d.flush(t, dsReplayFlushed)
			p.Await()
		}
		d.finish(e)
		h.Applied(e.pg, e.seq, nil)
		n++
	}
	return n
}

func dsReplayFlushed(t *Txn) {
	t.ds.stats.Replays.Inc()
	t.Done(t.Arg)
}

// UnappliedSeqs visits the committed-but-unflushed entries.
func (d *DirectStore) UnappliedSeqs(fn func(pg uint32, seq uint64)) { d.rlog.unapplied(fn) }

// PendingOps counts committed-but-unflushed entries.
func (d *DirectStore) PendingOps() int { return d.rlog.pendingOps() }

// PendingBytes is the committed-but-unflushed WAL payload.
func (d *DirectStore) PendingBytes() int64 { return d.walPending }

// WALFullStalls counts KV write stalls on the commit path (the direct
// backend's analogue of a full journal ring).
func (d *DirectStore) WALFullStalls() uint64 { return d.db.Stats().Stalls.Value() }

// RegisterMetrics publishes the direct-write counters.
func (d *DirectStore) RegisterMetrics(r *metrics.Registry, prefix string) {
	s := r.Sub(prefix + ".direct")
	s.Counter("small_writes", &d.stats.SmallWrites)
	s.Counter("large_writes", &d.stats.LargeWrites)
	s.Counter("wal_bytes", &d.stats.WALBytes)
	s.Counter("direct_bytes", &d.stats.DirectBytes)
	s.Counter("flushes", &d.stats.Flushes)
	s.Counter("replays", &d.stats.Replays)
	s.Gauge("wal_pending_bytes", func() float64 { return float64(d.walPending) })
}
