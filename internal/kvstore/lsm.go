// Package kvstore implements a functional log-structured merge-tree
// key-value store (LevelDB/RocksDB shape: WAL → memtable → L0 SSTables →
// compacted L1) whose I/O is charged to a simulated device.
//
// Ceph's filestore keeps PG logs and object omap data in exactly such a
// store, and the paper attributes part of the transaction overhead to it:
// many small Puts cause WAL churn and write amplification ("writing 2GB
// with 4KB blocks writes an additional 2GB"), and compaction makes
// request latency unstable. All of that depends on keys, their order,
// tombstones, layering and byte counts, so that is what the store keeps:
// an entry records its value's length, never its bytes, and nothing reads
// a value back. Flushes, compaction merges (newest version wins,
// tombstones dropped) and stalls are real, so the paper's "batch the
// transaction's KV operations" optimization changes real WAL and
// compaction behaviour rather than a synthetic counter.
//
// Memtables and SSTables are one pointer-free table (table.go): key bytes
// copied into an arena, flat entry records and, for the active memtable,
// an open-addressing index. The store keeps no caller's key string.
package kvstore

import (
	"bytes"
	"math"
	"slices"

	"repro/internal/cpumodel"
	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Params configures the store.
type Params struct {
	// MemtableSize is the flush threshold in bytes.
	MemtableSize int64
	// L0CompactTrigger is the L0 table count that starts compaction.
	L0CompactTrigger int
	// L0StallTrigger is the L0 table count at which writers stall (the
	// RocksDB "write stall"); must be >= L0CompactTrigger.
	L0StallTrigger int
	// ChunkSize is the device write granularity for flush/compaction.
	ChunkSize int64
	// EntryOverhead is per-entry on-disk overhead (header, CRC, index).
	EntryOverhead int64
	// WALBatchHeader is the fixed per-WAL-write overhead; batching many
	// operations into one write amortizes it.
	WALBatchHeader int64
	// PutCPU is the per-operation CPU cost (skiplist/memtable work).
	PutCPU sim.Time
	// PutAllocs is the number of small allocations per operation.
	PutAllocs int
}

// DefaultParams returns LevelDB-era defaults.
func DefaultParams() Params {
	return Params{
		MemtableSize:     4 << 20,
		L0CompactTrigger: 4,
		L0StallTrigger:   8,
		ChunkSize:        128 << 10,
		EntryOverhead:    24,
		WALBatchHeader:   64,
		PutCPU:           2 * sim.Microsecond,
		PutAllocs:        6,
	}
}

// Stats aggregates store activity.
type Stats struct {
	Puts, Deletes        stats.Counter
	UserBytes            stats.Counter // payload bytes offered by callers
	WALBytes             stats.Counter
	FlushBytes           stats.Counter
	CompactionReadBytes  stats.Counter
	CompactionWriteBytes stats.Counter
	Compactions          stats.Counter
	Stalls               stats.Counter // Puts delayed by L0 stall
	StallTime            stats.Counter // ns spent stalled
}

// WriteAmplification returns total device write bytes per user byte.
func (s *Stats) WriteAmplification() float64 {
	user := s.UserBytes.Value()
	if user == 0 {
		return 0
	}
	total := s.WALBytes.Value() + s.FlushBytes.Value() + s.CompactionWriteBytes.Value()
	return float64(total) / float64(user)
}

// DB is the store. All methods taking a *sim.Proc block the calling process
// for the modelled latency; ApplyCall is the callback form of Apply.
type DB struct {
	k      *sim.Kernel
	name   string
	dev    device.Device
	node   *cpumodel.Node
	params Params

	mu        *sim.Mutex
	stallCond *sim.Cond

	mem        *table
	imm        []*table // rotated memtables, oldest first
	l0         []*table // newest first
	l1         []*table // sorted runs merged together; kept as one logical run
	compacting bool
	flushing   bool

	devOff int64 // monotonically advancing write cursor

	batchFree sim.FreeList[Batch] // Apply's batches, for reuse

	stats Stats
}

// New creates a store persisting to dev and charging CPU to node.
func New(k *sim.Kernel, name string, dev device.Device, node *cpumodel.Node, params Params) *DB {
	if params.L0StallTrigger < params.L0CompactTrigger {
		panic("kvstore: stall trigger below compaction trigger")
	}
	db := &DB{
		k:      k,
		name:   name,
		dev:    dev,
		node:   node,
		params: params,
		mem:    newTable(0, 0),
	}
	db.mu = sim.NewMutex(k, name+".mu")
	db.stallCond = sim.NewCond(db.mu)
	return db
}

// Stats returns a pointer to live statistics.
func (db *DB) Stats() *Stats { return &db.stats }

// L0Tables returns the current L0 run count (for tests/monitoring).
func (db *DB) L0Tables() int { return len(db.l0) }

// Op is one mutation in a batch. Only len(Value) is kept: the store
// never reads or retains the bytes, so callers may reuse the buffer.
type Op struct {
	Key    string
	Value  []byte
	Delete bool
}

// Apply atomically applies a batch: one WAL write covering every op, then
// memtable inserts. This is the primitive behind both community behaviour
// (one-op batches) and the light-weight transaction (multi-op batches). It
// is ApplyCall with sim.Wake, then Await.
func (db *DB) Apply(p *sim.Proc, ops []Op) { //afvet:allow unused cmd/afperf calls it
	b := db.batchFree.Get()
	b.Done, b.Arg, b.Ops = sim.Wake, p, ops
	db.ApplyCall(b) //afvet:allow poolsafe the batch is done with b once Await returns, before b is freed
	p.Await()
	b.Arg, b.Ops = nil, nil
	db.batchFree.Put(b)
}

// Batch is one Apply made by a callback chain (see ApplyCall). Its owner
// keeps it alive, and may reuse it and its ops once Done has run.
type Batch struct {
	// Done runs as Done(Arg) once the batch is applied. It runs in kernel
	// context and must not block.
	Done func(any)
	Arg  any
	Ops  []Op

	db                  *DB
	userBytes, walBytes int64
	t0                  sim.Time // when the batch began to stall
	io                  device.IO
	work                cpumodel.Work
}

// ApplyCall is Apply for callback models: it takes the writer lock, waits
// out an L0 write stall, writes the batch's WAL record, charges the put CPU
// (its allocations priced once the WAL write lands), inserts the entries
// and runs b.Done, each in the event slot Apply's process would use. An
// empty batch completes inline.
func (db *DB) ApplyCall(b *Batch) {
	if len(b.Ops) == 0 {
		b.Done(b.Arg)
		return
	}
	b.db = db
	b.userBytes, b.walBytes = 0, db.params.WALBatchHeader
	for _, op := range b.Ops {
		if len(op.Value) > math.MaxUint32 {
			panic("kvstore: value longer than 4 GiB")
		}
		n := int64(len(op.Key) + len(op.Value))
		b.userBytes += n
		b.walBytes += n + db.params.EntryOverhead
	}
	b.io.Done, b.io.Arg = applyLogged, b
	b.work.Done, b.work.Arg = applyCharged, b
	if db.mu.LockCall(applyLocked, b) {
		applyLocked(b)
	}
}

// applyLocked writes the WAL record under the writer lock (LevelDB
// single-writer discipline), unless too many L0 files mean compaction is
// behind: then the batch stalls until compaction signals.
func applyLocked(a any) {
	b := a.(*Batch)
	db := b.db
	if len(db.l0) >= db.params.L0StallTrigger {
		db.stats.Stalls.Inc()
		b.t0 = db.k.Now()
		db.stallCond.WaitCall(applyUnstalled, b)
		return
	}
	b.io.Off, b.io.Size, b.io.Write = db.alloc(b.walBytes), b.walBytes, true
	db.dev.Submit(&b.io)
}

func applyUnstalled(a any) {
	b := a.(*Batch)
	b.db.stats.StallTime.Add(uint64(b.db.k.Now() - b.t0))
	applyLocked(b)
}

// applyLogged charges the memtable inserts' CPU once the WAL record lands.
func applyLogged(a any) {
	b := a.(*Batch)
	db := b.db
	db.stats.WALBytes.Add(uint64(b.walBytes))
	n := len(b.Ops)
	db.node.UseCall(&b.work, db.params.PutCPU*sim.Time(n)+db.node.AllocCost(db.params.PutAllocs*n))
}

// applyCharged inserts the batch into the memtable (an overwrite replaces
// the active memtable's entry), releases the writer lock and completes.
func applyCharged(a any) {
	b := a.(*Batch)
	db := b.db
	for _, op := range b.Ops {
		e, found := db.mem.upsert(op.Key)
		if found {
			db.mem.bytes -= db.entryBytes(*e)
		}
		e.size, e.tombstone = uint32(len(op.Value)), op.Delete
		db.mem.bytes += db.entryBytes(*e)
		if op.Delete {
			db.stats.Deletes.Inc()
		} else {
			db.stats.Puts.Inc()
		}
	}
	db.stats.UserBytes.Add(uint64(b.userBytes))
	if db.mem.bytes >= db.params.MemtableSize {
		db.rotateMemtable()
	}
	db.mu.UnlockCall(b)
	b.Done(b.Arg)
}

// entryBytes is an entry's on-disk footprint.
func (db *DB) entryBytes(e entry) int64 {
	return int64(e.klen) + int64(e.size) + db.params.EntryOverhead
}

// alloc advances the device write cursor (log-structured layout).
func (db *DB) alloc(n int64) int64 {
	off := db.devOff
	db.devOff += n
	return off
}

// rotateMemtable moves the active memtable to the immutable list and kicks
// a background flush. Caller holds db.mu.
func (db *DB) rotateMemtable() {
	if db.mem.bytes == 0 {
		return
	}
	// The next memtable is sized from this one, so filling it does not
	// grow its entries, arena and index step by step.
	imm := db.mem
	db.mem = newTable(len(imm.entries), len(imm.arena))
	db.imm = append(db.imm, imm)
	if !db.flushing {
		db.flushing = true
		db.k.Go(db.name+".flush", db.flushLoop)
	}
}

// flushLoop drains immutable memtables into L0 tables: each is frozen in
// place and joins L0 once written. It leaves imm only then, so every entry
// sits in some layer throughout the flush.
func (db *DB) flushLoop(p *sim.Proc) {
	db.mu.Lock(p)
	for len(db.imm) > 0 {
		t := db.imm[0]
		t.freeze()
		db.mu.Unlock(p)
		// Sequential write of the table, chunked.
		db.writeSequential(p, t.bytes)
		db.stats.FlushBytes.Add(uint64(t.bytes))
		db.mu.Lock(p)
		db.imm = db.imm[1:]
		db.l0 = append([]*table{t}, db.l0...)
		if len(db.l0) >= db.params.L0CompactTrigger && !db.compacting {
			db.compacting = true
			db.k.Go(db.name+".compact", db.compactLoop)
		}
	}
	db.flushing = false
	db.mu.Unlock(p)
}

func (db *DB) writeSequential(p *sim.Proc, bytes int64) {
	for bytes > 0 {
		n := bytes
		if n > db.params.ChunkSize {
			n = db.params.ChunkSize
		}
		db.dev.Write(p, db.alloc(n), n)
		bytes -= n
	}
}

func (db *DB) readSequential(p *sim.Proc, bytes int64) {
	for bytes > 0 {
		n := bytes
		if n > db.params.ChunkSize {
			n = db.params.ChunkSize
		}
		db.dev.Read(p, 0, n)
		bytes -= n
	}
}

// compactLoop merges all L0 tables plus L1 into a fresh L1 and drops
// tombstones — the background work whose device traffic is the LSM write
// amplification.
func (db *DB) compactLoop(p *sim.Proc) {
	for {
		db.mu.Lock(p)
		if len(db.l0) < db.params.L0CompactTrigger {
			db.compacting = false
			db.mu.Unlock(p)
			return
		}
		inputs := append([]*table{}, db.l0...)
		inputs = append(inputs, db.l1...)
		db.mu.Unlock(p)

		var readBytes int64
		for _, t := range inputs {
			readBytes += t.bytes
		}
		db.readSequential(p, readBytes)
		db.stats.CompactionReadBytes.Add(uint64(readBytes))

		merged := db.merge(inputs)
		db.writeSequential(p, merged.bytes)
		db.stats.CompactionWriteBytes.Add(uint64(merged.bytes))
		db.stats.Compactions.Inc()

		db.mu.Lock(p)
		// Remove consumed inputs; new L0 tables may have arrived meanwhile.
		var l0 []*table
		for _, t := range db.l0 {
			if !slices.Contains(inputs, t) {
				l0 = append(l0, t)
			}
		}
		db.l0 = l0
		db.l1 = []*table{merged}
		db.stallCond.Broadcast()
		db.mu.Unlock(p)
	}
}

// merge combines sorted tables (inputs ordered newest first: L0, then L1)
// into one, keeping the newest version of each key and dropping
// tombstones. It walks the inputs in step, so its output is sorted too.
func (db *DB) merge(inputs []*table) *table {
	var n, keyBytes int
	for _, t := range inputs {
		n += len(t.entries)
		keyBytes += len(t.arena)
	}
	out := &table{arena: make([]byte, 0, keyBytes), entries: make([]entry, 0, n)}
	next := make([]int, len(inputs)) // each input's first unmerged entry
	for {
		// The smallest unmerged key; of the inputs holding it, the first is
		// the newest.
		win, key := -1, []byte(nil)
		for i, t := range inputs {
			if next[i] == len(t.entries) {
				continue
			}
			if k := t.key(t.entries[next[i]]); win < 0 || bytes.Compare(k, key) < 0 {
				win, key = i, k
			}
		}
		if win < 0 {
			return out
		}
		e := inputs[win].entries[next[win]]
		for i, t := range inputs {
			if next[i] < len(t.entries) && bytes.Equal(t.key(t.entries[next[i]]), key) {
				next[i]++
			}
		}
		if e.tombstone {
			continue
		}
		e.off = out.keyOff(len(key))
		out.arena = append(out.arena, key...)
		out.entries = append(out.entries, e)
		out.bytes += db.entryBytes(e)
	}
}
