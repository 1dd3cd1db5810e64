// Package filestore models Ceph's FileStore backend: object data in files
// on a local filesystem (here: directly on a block device), object/PG
// metadata in a key-value store, and xattrs. A write arrives as a
// transaction — data write + PG log append + omap sets + attr sets — and
// the per-transaction costs (syscalls, metadata reads, separate KV puts)
// are exactly what the paper's light-weight transaction removes:
//
//   - redundant syscalls (open/stat repeated per op) are collapsed,
//   - set-alloc-hint (fallocate) is dropped from the random-write path,
//   - KV operations are batched into one WAL write,
//   - a write-through metadata cache removes metadata *reads* from the
//     write path, avoiding the SSD mixed read/write penalty.
//
// The object table is real bookkeeping: sizes, versions and (optionally)
// per-extent stamps survive, so integration tests can verify that the
// storage semantics are preserved by every optimization profile.
package filestore

import (
	"slices"

	"repro/internal/cpumodel"
	"repro/internal/device"
	"repro/internal/kvstore"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Config selects the transaction-processing behaviour.
type Config struct {
	// LightTx selects the paper's light-weight transaction (§3.4): one
	// open+write per transaction instead of the repeated
	// open/stat/write/close sequence, no set-alloc-hint (fallocate)
	// syscall, all of a transaction's KV mutations in one batch instead of
	// one WAL write each, and a write-through metadata cache, so writes
	// never read metadata from storage.
	LightTx bool
	// MetaMissProb is the probability a write needs a metadata read from
	// the device when there is no write-through cache. It reflects dataset
	// size vs. page cache (high in the paper's sustained 80%-full tests).
	MetaMissProb float64
	// VerifyData records per-extent stamps so tests can check
	// read-your-write semantics (costs host memory; off for big benches).
	VerifyData bool
	// ApplyWriteback buffers data writes in the page cache and flushes
	// them from a background syncer (classic HDD-era filestore behaviour:
	// the deep writeback queue is what lets the disk's elevator scheduler
	// amortize seeks). When false, applies write through synchronously.
	ApplyWriteback bool
	// dirtyLimit bounds buffered dirty bytes; applies block beyond it.
	// Zero means 128 MB.
	dirtyLimit int64
}

const (
	// syscallCost is the CPU cost of one system call (mode switch + VFS).
	syscallCost = 2 * sim.Microsecond
	// metaReadSize is the device read size for one metadata miss.
	metaReadSize = 4096
)

// CommunityConfig returns FileStore behaviour matching stock Ceph 0.94.
func CommunityConfig() Config { return Config{MetaMissProb: 0.65} }

// LightConfig returns the paper's light-weight transaction behaviour.
// MetaMissProb is irrelevant with the write-through cache on.
func LightConfig() Config { return Config{LightTx: true, MetaMissProb: 0.65} }

// Stats aggregates filestore activity.
type Stats struct {
	Applies       stats.Counter
	Reads         stats.Counter
	Syscalls      stats.Counter
	MetaReads     stats.Counter
	MetaReadBytes stats.Counter
	DataBytes     stats.Counter
}

// Transaction is one OSD write transaction, and the request ApplyCall
// makes of it.
type Transaction struct {
	// Done runs as Done(Arg) once ApplyCall has applied the transaction.
	// It runs in kernel context and must not block.
	Done func(any)
	Arg  any

	OID string
	Off int64
	Len int64
	// PGLogKey/PGLogValue is the PG log append entry.
	PGLogKey   string
	PGLogValue []byte
	// OmapOps are the object's metadata KV mutations.
	OmapOps []kvstore.Op
	// XattrBytes is object attribute payload written via setattr.
	XattrBytes int64
	// Stamp verifies read-your-write when Config.VerifyData is on.
	Stamp uint64
	// kvScratch is the apply's combined-op buffer; it rides on the
	// transaction because a pooled tx is exclusively owned for the
	// duration of its apply, while a FileStore-level scratch would be
	// shared by every apply in flight.
	kvScratch []kvstore.Op

	// ApplyCall's state of the apply in flight.
	f    *FileStore
	obj  *object
	next int // per-op KV mode: the next op of kvScratch to apply
	work cpumodel.Work
	io   device.IO
	kv   kvstore.Batch
}

// object is the authoritative per-object record.
type object struct {
	size    int64
	version uint64
	base    int64 // device extent base assigned on first touch
	stamps  map[int64]uint64
	// damaged marks latent media corruption that a deep scrub's checksum
	// comparison would identify on this copy (set by CorruptObject,
	// cleared when clean data is ingested over it or when every rotten
	// extent has been overwritten by fresh writes).
	damaged bool
	// rot records which extents (by start offset) the corruption hit, so
	// the read path can serve clean extents of a damaged object and repair
	// can keep them. Empty while damaged means coarse corruption: every
	// extent is suspect.
	rot map[int64]bool
}

// overwritten clears an extent's rot record: fresh data just landed at off,
// so that extent is trustworthy again. A damaged object whose last rotten
// extent is overwritten is clean. Coarse corruption (no per-extent record)
// is not cleared by a single write.
func (o *object) overwritten(off int64) {
	if !o.damaged || len(o.rot) == 0 {
		return
	}
	delete(o.rot, off)
	if len(o.rot) == 0 {
		o.damaged = false
		o.rot = nil
	}
}

// extentSize is the device address space reserved per object (the RBD
// object size); distinct objects land on distinct extents so the device
// model sees the workload's true randomness.
const extentSize = 4 << 20

// FileStore is the object store backend.
type FileStore struct {
	k    *sim.Kernel
	name string
	dev  device.Device
	db   *kvstore.DB
	node *cpumodel.Node
	cfg  Config
	rnd  *rng.Rand

	objects    map[string]*object
	nextExtent int64

	// Writeback state (ApplyWriteback mode).
	dirty     int64
	flushQ    *sim.Queue[flushReq]
	dirtyMu   *sim.Mutex
	dirtyCond *sim.Cond

	stats Stats
}

type flushReq struct {
	off, size int64
}

// New creates a filestore over dev with metadata in db.
func New(k *sim.Kernel, name string, dev device.Device, db *kvstore.DB, node *cpumodel.Node, cfg Config, r *rng.Rand) *FileStore {
	f := &FileStore{
		k:       k,
		name:    name,
		dev:     dev,
		db:      db,
		node:    node,
		cfg:     cfg,
		rnd:     r.Fork(),
		objects: make(map[string]*object),
	}
	if cfg.ApplyWriteback {
		if f.cfg.dirtyLimit <= 0 {
			f.cfg.dirtyLimit = 128 << 20
		}
		f.flushQ = sim.NewQueue[flushReq](k, name+".flushq", 0)
		f.dirtyMu = sim.NewMutex(k, name+".dirty")
		f.dirtyCond = sim.NewCond(f.dirtyMu)
		// A pool of flushers keeps the device queue deep — that depth is
		// what the HDD elevator (and flash parallelism) feeds on.
		for i := 0; i < 16; i++ {
			k.Go(name+".flusher", f.flusher)
		}
	}
	return f
}

// flusher is the background writeback thread: it keeps the device queue
// deep (letting an HDD elevator do its job) and returns dirty credit.
func (f *FileStore) flusher(p *sim.Proc) {
	for {
		req, ok := f.flushQ.Pop(p)
		if !ok {
			return
		}
		f.dev.Write(p, req.off, req.size)
		f.dirtyMu.Lock(p)
		f.dirty -= req.size
		f.dirtyCond.Broadcast()
		f.dirtyMu.Unlock(p)
	}
}

// Stats returns live statistics.
func (f *FileStore) Stats() *Stats { return &f.stats }

// Device returns the backing data device.
func (f *FileStore) Device() device.Device { return f.dev }

// DB returns the metadata store.
func (f *FileStore) DB() *kvstore.DB { return f.db }

// writeSyscallCount returns the syscall count for one data write.
func (f *FileStore) writeSyscallCount() int {
	if f.cfg.LightTx {
		return 2 // open + write (fd cache hit, stat folded into cached metadata)
	}
	// open + stat + write + setxattr + omap touch + close, and
	// set-alloc-hint (fallocate)
	return 7
}

// Apply performs a write transaction and blocks until it is durable on the
// data device and the KV store. It is ApplyCall with sim.Wake as tx's
// Done, then Await.
func (f *FileStore) Apply(p *sim.Proc, tx *Transaction) {
	tx.Done, tx.Arg = sim.Wake, p
	f.ApplyCall(tx)
	p.Await()
	tx.Arg = nil
}

// ApplyCall is Apply for callback models: it charges the transaction's
// syscalls, reads metadata from the device on a cache miss (the miss draw
// happens once the syscalls are charged), applies the KV mutations, looks
// the object up, then writes the data or hands it to writeback, and runs
// tx.Done. Every event lands in the slot Apply's process would use.
func (f *FileStore) ApplyCall(tx *Transaction) {
	f.stats.Applies.Inc()
	n := f.writeSyscallCount()
	f.stats.Syscalls.Add(uint64(n))
	tx.f = f
	tx.work.Done, tx.work.Arg = txCharged, tx
	tx.io.Arg = tx
	tx.kv.Arg = tx
	f.node.UseCall(&tx.work, syscallCost*sim.Time(n))
}

// txCharged reads metadata (read-modify-write) on the write path unless
// the write-through cache holds it. Inode/omap blocks are scattered, so
// the read is random — it lands in the middle of the write stream and
// pays the SSD mixed read/write penalty.
func txCharged(a any) {
	tx := a.(*Transaction)
	f := tx.f
	if !f.cfg.LightTx && f.rnd.Float64() < f.cfg.MetaMissProb {
		tx.io.Done = txMetaRead
		tx.io.Off, tx.io.Size, tx.io.Write = f.rnd.Int63n(1<<34)&^4095, metaReadSize, false
		f.dev.Submit(&tx.io)
		return
	}
	txKV(tx)
}

func txMetaRead(a any) {
	tx := a.(*Transaction)
	tx.f.stats.MetaReads.Inc()
	tx.f.stats.MetaReadBytes.Add(uint64(metaReadSize))
	txKV(tx)
}

// txKV applies the KV mutations, the PG log entry and the omap ops: as one
// batch, or one batch per op.
func txKV(tx *Transaction) {
	ops := tx.kvScratch[:0]
	if tx.PGLogKey != "" {
		ops = append(ops, kvstore.Op{Key: tx.PGLogKey, Value: tx.PGLogValue})
	}
	ops = append(ops, tx.OmapOps...)
	tx.kvScratch = ops
	if tx.f.cfg.LightTx {
		tx.kv.Done, tx.kv.Ops = txKVApplied, ops
		tx.f.db.ApplyCall(&tx.kv)
		return
	}
	tx.next = 0
	txNextOp(tx)
}

func txNextOp(a any) {
	tx := a.(*Transaction)
	if tx.next == len(tx.kvScratch) {
		txKVApplied(tx)
		return
	}
	tx.kv.Done, tx.kv.Ops = txNextOp, tx.kvScratch[tx.next:tx.next+1]
	tx.next++
	tx.f.db.ApplyCall(&tx.kv)
}

// txKVApplied looks the object up in the authoritative table and writes
// the data at the object's device extent: through the page cache with
// writeback on, or straight to the device.
func txKVApplied(a any) {
	tx := a.(*Transaction)
	f := tx.f
	tx.kv.Ops = nil
	tx.obj = f.lookup(tx.OID)
	switch {
	case tx.Len == 0:
		txDone(tx)
	case f.cfg.ApplyWriteback:
		// Page-cache write: wait only when past the dirty limit, then
		// hand the extent to the background flusher.
		if f.dirtyMu.LockCall(txDirtyLocked, tx) {
			txDirtyLocked(tx)
		}
	default:
		tx.io.Done = txWritten
		tx.io.Off, tx.io.Size, tx.io.Write = tx.obj.base+tx.Off%extentSize, tx.Len, true
		f.dev.Submit(&tx.io)
	}
}

func txDirtyLocked(a any) {
	tx := a.(*Transaction)
	f := tx.f
	if f.dirty >= f.cfg.dirtyLimit {
		f.dirtyCond.WaitCall(txDirtyLocked, tx)
		return
	}
	f.dirty += tx.Len
	f.dirtyMu.UnlockCall(tx)
	f.flushQ.TryPush(flushReq{off: tx.obj.base + tx.Off%extentSize, size: tx.Len})
	txWritten(tx)
}

func txWritten(a any) {
	tx := a.(*Transaction)
	tx.f.stats.DataBytes.Add(uint64(tx.Len))
	txDone(tx)
}

// txDone updates the object table and completes the apply.
func txDone(tx *Transaction) {
	obj := tx.obj
	if end := tx.Off + tx.Len; end > obj.size {
		obj.size = end
	}
	obj.version++
	if tx.Len > 0 {
		if tx.f.cfg.VerifyData {
			if obj.stamps == nil {
				obj.stamps = make(map[int64]uint64)
			}
			obj.stamps[tx.Off] = tx.Stamp
		}
		obj.overwritten(tx.Off)
	}
	tx.obj = nil
	tx.Done(tx.Arg)
}

// DevOffset translates an object-relative offset to the device address of
// the object's extent, allocating the extent on first touch — for backends
// that own their data I/O but share this object table.
func (f *FileStore) DevOffset(oid string, off int64) int64 {
	return f.lookup(oid).base + off%extentSize
}

// CommitObject updates the authoritative object table for a write whose
// data I/O and KV commit happened outside Apply (a direct-write backend).
// It charges no I/O or CPU; the table stays shared so reads, scrub and
// recovery see one source of truth regardless of backend.
func (f *FileStore) CommitObject(oid string, off, length int64, stamp uint64) {
	obj := f.lookup(oid)
	if end := off + length; end > obj.size {
		obj.size = end
	}
	obj.version++
	if length > 0 {
		if f.cfg.VerifyData {
			if obj.stamps == nil {
				obj.stamps = make(map[int64]uint64)
			}
			obj.stamps[off] = stamp
		}
		obj.overwritten(off)
	}
}

// lookup returns the object record, allocating its device extent on first
// touch.
func (f *FileStore) lookup(oid string) *object {
	obj := f.objects[oid]
	if obj == nil {
		obj = &object{base: f.nextExtent}
		f.nextExtent += extentSize
		f.objects[oid] = obj
	}
	return obj
}

// ReadReq is one Read made by a callback chain (see ReadCall). Its owner
// keeps it alive, and may reuse it once Done has run.
type ReadReq struct {
	// Done runs as Done(Arg) when the read is over, after Stamp, Exists
	// and Damaged are set. It runs in kernel context and must not block.
	Done func(any)
	Arg  any

	OID       string
	Off, Size int64

	// Stamp is the stamp recorded for that exact extent (when VerifyData
	// is on); Exists reports whether the object exists; Damaged is
	// ExtentDamaged(OID, Off), judged from the object the read found.
	Stamp   uint64
	Exists  bool
	Damaged bool

	f    *FileStore
	obj  *object // the object found after the syscall charge, or nil
	work cpumodel.Work
	io   device.IO
}

// ReadCall is Read for callback models: it charges the syscalls, reads the
// object's metadata from the device on a cache miss, then its data, and
// runs r.Done. The object lookup and the miss draw happen once the
// syscalls are charged, and every event lands in the slot Read's would.
func (f *FileStore) ReadCall(r *ReadReq) {
	f.stats.Reads.Inc()
	n := 3 // open + read + close
	if f.cfg.LightTx {
		n = 1
	}
	f.stats.Syscalls.Add(uint64(n))
	r.f = f
	r.work.Done, r.work.Arg = readCharged, r
	r.io.Arg = r
	f.node.UseCall(&r.work, syscallCost*sim.Time(n))
}

// readCharged looks the object up and reads its metadata on a cache miss:
// without the write-through metadata cache, serving a read needs the
// object's inode, xattr and omap header from storage first.
func readCharged(a any) {
	r := a.(*ReadReq)
	f := r.f
	r.obj = f.objects[r.OID]
	if !f.cfg.LightTx && f.rnd.Float64() < f.cfg.MetaMissProb {
		r.io.Done = readMetaDone
		r.io.Off, r.io.Size, r.io.Write = f.rnd.Int63n(1<<34)&^4095, metaReadSize, false
		f.dev.Submit(&r.io)
		return
	}
	readData(r)
}

func readMetaDone(a any) {
	r := a.(*ReadReq)
	r.f.stats.MetaReads.Inc()
	r.f.stats.MetaReadBytes.Add(uint64(metaReadSize))
	readData(r)
}

// readData reads the extent, at the object's device extent (an absent
// object reads at extent 0).
func readData(r *ReadReq) {
	base := int64(0)
	if r.obj != nil {
		base = r.obj.base
	}
	r.io.Done = readDone
	r.io.Off, r.io.Size, r.io.Write = base+r.Off%extentSize, r.Size, false
	r.f.dev.Submit(&r.io)
}

func readDone(a any) {
	r := a.(*ReadReq)
	obj := r.obj
	r.obj = nil
	r.Stamp, r.Exists, r.Damaged = 0, obj != nil, obj != nil && obj.extentDamaged(r.Off)
	if obj != nil && r.f.cfg.VerifyData && obj.stamps != nil {
		r.Stamp = obj.stamps[r.Off]
	}
	r.Done(r.Arg)
}

// Read fetches size bytes at off of oid. It returns the stamp recorded for
// that exact extent (when VerifyData is on) and whether the object exists.
// It is ReadCall with sim.Wake, then Await.
func (f *FileStore) Read(p *sim.Proc, oid string, off, size int64) (stamp uint64, exists bool) {
	r := &ReadReq{Done: sim.Wake, Arg: p, OID: oid, Off: off, Size: size}
	f.ReadCall(r)
	p.Await()
	return r.Stamp, r.Exists
}

// ObjectSize returns the current size of oid (0 if absent).
func (f *FileStore) ObjectSize(oid string) int64 { //afvet:allow unused store/store_test.go checks the object size a backend's write leaves through it
	if o, ok := f.objects[oid]; ok {
		return o.size
	}
	return 0
}

// ObjectVersion returns the mutation count of oid.
func (f *FileStore) ObjectVersion(oid string) uint64 {
	if o, ok := f.objects[oid]; ok {
		return o.version
	}
	return 0
}

// ObjectNames lists every stored object in sorted order (scrub and
// recovery iterate the result, so it must not leak map iteration order).
func (f *FileStore) ObjectNames() []string {
	names := f.AppendObjectNames(make([]string, 0, len(f.objects)))
	slices.Sort(names)
	return names
}

// ObjectCount returns the number of stored objects.
func (f *FileStore) ObjectCount() int { return len(f.objects) }

// AppendObjectNames appends every stored object's name to dst in map
// order, unsorted: the caller sorts.
func (f *FileStore) AppendObjectNames(dst []string) []string {
	for n := range f.objects { //afvet:allow determinism unsorted by contract; every caller sorts
		dst = append(dst, n)
	}
	return dst
}

// DeleteObject removes an object (recovery rollback of a divergent copy
// that no surviving peer has, or scrub-repair removal of a stray clone).
// It reports whether the object existed.
func (f *FileStore) DeleteObject(oid string) bool {
	if _, ok := f.objects[oid]; !ok {
		return false
	}
	delete(f.objects, oid)
	return true
}

// CorruptObject deterministically damages an object's stored data by
// scrambling its extent stamps and flagging the copy damaged, modelling
// latent media corruption (bit rot): the metadata version is untouched, so
// only a deep scrub catches it — the flag stands in for the checksum
// mismatch a real deep scrub computes, identifying *which* copy is bad.
// It reports whether the object existed.
func (f *FileStore) CorruptObject(oid string) bool {
	o, ok := f.objects[oid]
	if !ok {
		return false
	}
	if len(o.stamps) > 0 {
		o.rot = make(map[int64]bool, len(o.stamps))
	}
	//afvet:allow determinism per-key XOR of every entry; order cannot matter
	for off := range o.stamps {
		o.stamps[off] ^= 0xdeadbeef
		o.rot[off] = true
	}
	o.damaged = true
	return true
}

// ObjectDamaged reports whether the stored copy is flagged as corrupted.
func (f *FileStore) ObjectDamaged(oid string) bool {
	if o, ok := f.objects[oid]; ok {
		return o.damaged
	}
	return false
}

// ExtentDamaged reports whether the stored copy of the extent starting at
// off is rotten. A damaged object without a per-extent record (coarse
// corruption, e.g. VerifyData off) counts every extent as damaged.
func (f *FileStore) ExtentDamaged(oid string, off int64) bool { //afvet:allow unused filestore_test.go and store/store_test.go check per-extent damage through it
	o := f.objects[oid]
	return o != nil && o.extentDamaged(off)
}

// extentDamaged is ExtentDamaged of an object already looked up.
func (o *object) extentDamaged(off int64) bool {
	if !o.damaged {
		return false
	}
	return len(o.rot) == 0 || o.rot[off]
}

// ObjectState is a recoverable snapshot of one object's metadata.
type ObjectState struct {
	Size    int64
	Version uint64
	Stamps  map[int64]uint64
	// Damaged carries the copy's corruption flag (checksum-mismatch state);
	// Rot identifies the affected extents when the damage is per-extent.
	Damaged bool
	Rot     map[int64]bool
}

// Cleansed strips the rotten extents out of a snapshot: what remains is
// the trustworthy portion of the copy, safe to contribute to a repair
// union. A damaged copy without a per-extent record keeps only its size
// and version (every extent is suspect); a clean copy comes back as-is
// minus the (false) damage flags.
func (st ObjectState) Cleansed() ObjectState {
	out := ObjectState{Size: st.Size, Version: st.Version}
	if st.Damaged && len(st.Rot) == 0 {
		return out
	}
	if st.Stamps != nil {
		out.Stamps = make(map[int64]uint64, len(st.Stamps))
		for k, v := range st.Stamps { //afvet:allow determinism map-to-map copy is order-insensitive
			if !st.Rot[k] {
				out.Stamps[k] = v
			}
		}
	}
	return out
}

// UnionState merges two snapshots of an object extent-wise: the higher
// stamp wins per offset (stamps are client-monotonic per extent, and every
// stamp present on any replica belongs to a client attempt that was — or
// after retry will be — acked with the same data), and size/version take
// the maximum. Recovery, repair and read-repair converge copies through
// this union so no acked extent is ever discarded. Callers pass Cleansed
// snapshots when an input may carry rotten extents.
func UnionState(a, b ObjectState) ObjectState {
	out := ObjectState{Size: a.Size, Version: a.Version}
	if b.Size > out.Size {
		out.Size = b.Size
	}
	if b.Version > out.Version {
		out.Version = b.Version
	}
	if len(a.Stamps)+len(b.Stamps) > 0 {
		out.Stamps = make(map[int64]uint64, len(a.Stamps)+len(b.Stamps))
		for k, v := range a.Stamps { //afvet:allow determinism map-to-map copy is order-insensitive
			out.Stamps[k] = v
		}
		for k, v := range b.Stamps { //afvet:allow determinism per-key max is order-insensitive
			if v > out.Stamps[k] {
				out.Stamps[k] = v
			}
		}
	}
	return out
}

// ExportObject snapshots an object's state for recovery. It charges no
// I/O itself — the caller reads the object data separately.
func (f *FileStore) ExportObject(oid string) (ObjectState, bool) {
	o, ok := f.objects[oid]
	if !ok {
		return ObjectState{}, false
	}
	st := ObjectState{Size: o.size, Version: o.version, Damaged: o.damaged}
	if o.stamps != nil {
		st.Stamps = make(map[int64]uint64, len(o.stamps))
		for k, v := range o.stamps { //afvet:allow determinism map-to-map copy is order-insensitive
			st.Stamps[k] = v
		}
	}
	if o.rot != nil {
		st.Rot = make(map[int64]bool, len(o.rot))
		for k, v := range o.rot { //afvet:allow determinism map-to-map copy is order-insensitive
			st.Rot[k] = v
		}
	}
	return st, true
}

// IngestObject installs a recovered object: the payload is written to the
// local device (stream-class, it arrives as one large push) and the
// object's metadata — including verification stamps — is replaced. It is
// IngestCall with sim.Wake, then Await.
func (f *FileStore) IngestObject(p *sim.Proc, oid string, st ObjectState) {
	f.IngestCall(&Ingest{Done: sim.Wake, Arg: p, OID: oid, State: st})
	p.Await()
}

// Ingest is one IngestObject made by a callback chain (see IngestCall).
// Its owner keeps it alive until Done has run.
type Ingest struct {
	// Done runs as Done(Arg) once the object is installed. It runs in
	// kernel context and must not block.
	Done  func(any)
	Arg   any
	OID   string
	State ObjectState

	f   *FileStore
	obj *object
	off int64 // the payload written so far
	io  device.IO
}

// ingestChunk is the size of one payload write: recovery pushes land as
// large contiguous writes.
const ingestChunk = 1 << 20

// IngestCall is IngestObject for callback models: it writes the payload
// chunk by chunk, replaces the object's metadata, and runs in.Done. Every
// event lands in the slot IngestObject's would.
func (f *FileStore) IngestCall(in *Ingest) {
	in.f, in.obj, in.off = f, f.lookup(in.OID), 0
	in.io.Done, in.io.Arg, in.io.Write = ingestWritten, in, true
	ingestWritten(in)
}

// ingestWritten writes the payload's next chunk, or installs the object's
// metadata once every chunk is written.
func ingestWritten(a any) {
	in := a.(*Ingest)
	f, obj, st := in.f, in.obj, &in.State
	size := st.Size
	if size <= 0 {
		size = 4096
	}
	if in.off < size {
		n := min(size-in.off, ingestChunk)
		in.io.Off, in.io.Size = obj.base+in.off%extentSize, n
		in.off += n
		f.dev.Submit(&in.io)
		return
	}
	f.stats.DataBytes.Add(uint64(size))
	obj.size = st.Size
	obj.version = st.Version
	obj.damaged = st.Damaged
	obj.rot = nil
	if st.Rot != nil {
		obj.rot = make(map[int64]bool, len(st.Rot))
		for k, v := range st.Rot { //afvet:allow determinism map-to-map copy is order-insensitive
			obj.rot[k] = v
		}
	}
	if f.cfg.VerifyData && st.Stamps != nil {
		obj.stamps = make(map[int64]uint64, len(st.Stamps))
		for k, v := range st.Stamps { //afvet:allow determinism map-to-map copy is order-insensitive
			obj.stamps[k] = v
		}
	}
	in.Done(in.Arg)
}
