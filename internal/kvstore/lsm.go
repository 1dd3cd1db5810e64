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
package kvstore

import (
	"sort"

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

type entry struct {
	key       string
	size      int // value length; the bytes themselves are never kept
	tombstone bool
}

type memtable struct {
	data  map[string]entry
	bytes int64
}

func newMemtable() *memtable { return &memtable{data: make(map[string]entry)} }

// sstable is an immutable sorted run.
type sstable struct {
	entries []entry // sorted by key
	bytes   int64
	seq     uint64 // creation order; larger = newer
}

// DB is the store. All methods taking a *sim.Proc block the calling process
// for the modelled latency.
type DB struct {
	k      *sim.Kernel
	name   string
	dev    device.Device
	node   *cpumodel.Node
	params Params

	mu        *sim.Mutex
	stallCond *sim.Cond

	mem        *memtable
	imm        []*memtable
	l0         []*sstable
	l1         []*sstable // sorted runs merged together; kept as one logical run
	seq        uint64
	compacting bool
	flushing   bool

	devOff int64 // monotonically advancing write cursor

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
		mem:    newMemtable(),
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

// Put stores a single key. Equivalent to Apply with one op, paying the full
// per-write WAL overhead — the expensive pattern the paper's light-weight
// transaction replaces with batching.
func (db *DB) Put(p *sim.Proc, key string, value []byte) {
	db.Apply(p, []Op{{Key: key, Value: value}})
}

// Delete removes a key (writes a tombstone).
func (db *DB) Delete(p *sim.Proc, key string) {
	db.Apply(p, []Op{{Key: key, Delete: true}})
}

// Apply atomically applies a batch: one WAL write covering every op, then
// memtable inserts. This is the primitive behind both community behaviour
// (one-op batches) and the light-weight transaction (multi-op batches).
func (db *DB) Apply(p *sim.Proc, ops []Op) {
	if len(ops) == 0 {
		return
	}
	var userBytes, walBytes int64
	walBytes = db.params.WALBatchHeader
	for _, op := range ops {
		n := int64(len(op.Key) + len(op.Value))
		userBytes += n
		walBytes += n + db.params.EntryOverhead
	}

	db.mu.Lock(p)
	// Write stall: too many L0 files means compaction is behind.
	for len(db.l0) >= db.params.L0StallTrigger {
		db.stats.Stalls.Inc()
		t0 := p.Now()
		db.stallCond.Wait(p)
		db.stats.StallTime.Add(uint64(p.Now() - t0))
	}
	// WAL write under the writer lock (LevelDB single-writer discipline).
	db.dev.Write(p, db.alloc(walBytes), walBytes)
	db.stats.WALBytes.Add(uint64(walBytes))
	// Memtable inserts; an overwrite replaces the active memtable's entry.
	db.node.UseWithAllocs(p, db.params.PutCPU*sim.Time(len(ops)), db.params.PutAllocs*len(ops))
	for _, op := range ops {
		e := entry{key: op.Key, size: len(op.Value), tombstone: op.Delete}
		if old, ok := db.mem.data[op.Key]; ok {
			db.mem.bytes -= db.entryBytes(old)
		}
		db.mem.data[op.Key] = e
		db.mem.bytes += db.entryBytes(e)
		if op.Delete {
			db.stats.Deletes.Inc()
		} else {
			db.stats.Puts.Inc()
		}
	}
	db.stats.UserBytes.Add(uint64(userBytes))
	if db.mem.bytes >= db.params.MemtableSize {
		db.rotateMemtable()
	}
	db.mu.Unlock(p)
}

// entryBytes is an entry's on-disk footprint.
func (db *DB) entryBytes(e entry) int64 {
	return int64(len(e.key)+e.size) + db.params.EntryOverhead
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
	imm := db.mem
	db.mem = newMemtable()
	db.imm = append(db.imm, imm)
	if !db.flushing {
		db.flushing = true
		db.k.Go(db.name+".flush", db.flushLoop)
	}
}

// flushLoop drains immutable memtables into L0 tables. A memtable leaves
// imm only when its table joins L0, so every entry sits in some layer
// throughout the flush.
func (db *DB) flushLoop(p *sim.Proc) {
	db.mu.Lock(p)
	for len(db.imm) > 0 {
		table := db.buildTable(db.imm[0])
		db.mu.Unlock(p)
		// Sequential write of the table, chunked.
		db.writeSequential(p, table.bytes)
		db.stats.FlushBytes.Add(uint64(table.bytes))
		db.mu.Lock(p)
		db.imm = db.imm[1:]
		db.l0 = append([]*sstable{table}, db.l0...) // newest first
		if len(db.l0) >= db.params.L0CompactTrigger && !db.compacting {
			db.compacting = true
			db.k.Go(db.name+".compact", db.compactLoop)
		}
	}
	db.flushing = false
	db.mu.Unlock(p)
}

func (db *DB) buildTable(m *memtable) *sstable {
	db.seq++
	t := &sstable{seq: db.seq, bytes: m.bytes}
	t.entries = make([]entry, 0, len(m.data))
	for _, e := range m.data {
		t.entries = append(t.entries, e)
	}
	sort.Slice(t.entries, func(i, j int) bool { return t.entries[i].key < t.entries[j].key })
	return t
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
		inputs := append([]*sstable{}, db.l0...)
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
		consumed := make(map[*sstable]bool, len(inputs))
		for _, t := range inputs {
			consumed[t] = true
		}
		var l0 []*sstable
		for _, t := range db.l0 {
			if !consumed[t] {
				l0 = append(l0, t)
			}
		}
		db.l0 = l0
		db.l1 = []*sstable{merged}
		db.stallCond.Broadcast()
		db.mu.Unlock(p)
	}
}

// merge combines tables (inputs ordered newest-first for L0, then L1),
// keeping the newest version of each key and dropping tombstones.
func (db *DB) merge(inputs []*sstable) *sstable {
	latest := make(map[string]entry)
	// Iterate oldest -> newest so newer entries overwrite.
	for i := len(inputs) - 1; i >= 0; i-- {
		for _, e := range inputs[i].entries {
			latest[e.key] = e
		}
	}
	db.seq++
	out := &sstable{seq: db.seq}
	out.entries = make([]entry, 0, len(latest))
	for _, e := range latest {
		if e.tombstone {
			continue
		}
		out.entries = append(out.entries, e)
		out.bytes += db.entryBytes(e)
	}
	sort.Slice(out.entries, func(i, j int) bool { return out.entries[i].key < out.entries[j].key })
	return out
}
