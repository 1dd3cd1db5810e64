package kvstore

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"maps"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cpumodel"
	"repro/internal/device"
	"repro/internal/rng"
	"repro/internal/sim"
)

func testDB(k *sim.Kernel) *DB {
	node := cpumodel.NewNode(k, "node", 8, cpumodel.JEMalloc)
	ssd := device.NewSSD(k, "ssd", device.DefaultSSDParams(), rng.New(1))
	return New(k, "db", ssd, node, DefaultParams())
}

// smallDB uses a tiny memtable so flush/compaction trigger quickly.
func smallDB(k *sim.Kernel) *DB {
	node := cpumodel.NewNode(k, "node", 8, cpumodel.JEMalloc)
	ssd := device.NewSSD(k, "ssd", device.DefaultSSDParams(), rng.New(1))
	p := DefaultParams()
	p.MemtableSize = 4 << 10
	return New(k, "db", ssd, node, p)
}

// layers returns every table, oldest versions first: L1, L0 back to front
// (db.l0 is newest first), the rotated memtables in rotation order, then
// the active memtable.
func layers(db *DB) []*table {
	ts := append([]*table{}, db.l1...)
	for i := len(db.l0) - 1; i >= 0; i-- {
		ts = append(ts, db.l0[i])
	}
	ts = append(ts, db.imm...)
	return append(ts, db.mem)
}

// live resolves the newest version of every key across the layers and
// returns each live key's value size: it visits versions oldest first, so
// newer versions win and a tombstone removes the key.
func live(db *DB) map[string]int {
	m := map[string]int{}
	for _, t := range layers(db) {
		for _, e := range t.entries {
			if key := string(t.key(e)); e.tombstone {
				delete(m, key)
			} else {
				m[key] = int(e.size)
			}
		}
	}
	return m
}

// modelBytes is the on-disk footprint of a model's live entries.
func modelBytes(db *DB, model map[string]int) int64 {
	var n int64
	for key, size := range model {
		n += int64(len(key)+size) + db.params.EntryOverhead
	}
	return n
}

// checkLayers compares the resolved store with model and checks each
// table's representation: its bytes are the sum of its entries, its keys
// are distinct, L0 and L1 tables are strictly ascending by key, L1 holds
// no tombstone, and an indexed memtable's index is at most half full and
// finds every entry from the entry's stored hash, which is its key's hash.
func checkLayers(db *DB, model map[string]int) error {
	if got := live(db); !maps.Equal(got, model) {
		return fmt.Errorf("resolved %v, model %v", got, model)
	}
	sstables := append(append([]*table{}, db.l0...), db.l1...)
	for ti, t := range layers(db) {
		var sum int64
		keys := map[string]bool{}
		for _, e := range t.entries {
			sum += int64(len(t.key(e))+int(e.size)) + db.params.EntryOverhead
			if keys[string(t.key(e))] {
				return fmt.Errorf("table %d holds %q twice", ti, t.key(e))
			}
			keys[string(t.key(e))] = true
		}
		if sum != t.bytes {
			return fmt.Errorf("table %d bytes %d, entries sum to %d", ti, t.bytes, sum)
		}
		if slices.Contains(db.l1, t) && slices.ContainsFunc(t.entries, func(e entry) bool { return e.tombstone }) {
			return fmt.Errorf("L1 table %d holds a tombstone", ti)
		}
		if slices.Contains(sstables, t) {
			for i := 1; i < len(t.entries); i++ {
				if bytes.Compare(t.key(t.entries[i-1]), t.key(t.entries[i])) >= 0 {
					return fmt.Errorf("table %d out of order at %q", ti, t.key(t.entries[i]))
				}
			}
		}
		if t.index != nil {
			if err := checkIndex(t); err != nil {
				return fmt.Errorf("table %d: %w", ti, err)
			}
		}
	}
	return nil
}

// checkIndex checks that t's index holds each entry number once, is at most
// half full, and that probing from an entry's stored hash, which must be its
// key's hash, reaches the entry before a free slot.
func checkIndex(t *table) error {
	if len(t.index)&(len(t.index)-1) != 0 || 2*len(t.entries) > len(t.index) {
		return fmt.Errorf("index of %d slots for %d entries", len(t.index), len(t.entries))
	}
	var used int
	for _, n := range t.index {
		if n != 0 {
			used++
		}
	}
	if used != len(t.entries) {
		return fmt.Errorf("index holds %d entries, table %d", used, len(t.entries))
	}
	mask := uint32(len(t.index) - 1)
	for n, e := range t.entries {
		if h := uint32(maphash.Bytes(hashSeed, t.key(e))); h != e.hash {
			return fmt.Errorf("entry %q stores hash %#x, key hashes to %#x", t.key(e), e.hash, h)
		}
		i := e.hash & mask
		for t.index[i] != uint32(n+1) {
			if t.index[i] == 0 {
				return fmt.Errorf("probe for %q hits a free slot", t.key(e))
			}
			i = (i + 1) & mask
		}
	}
	return nil
}

func TestPutGetRoundTrip(t *testing.T) {
	k := sim.NewKernel()
	db := testDB(k)
	k.Go("io", func(p *sim.Proc) {
		db.Apply(p, []Op{{Key: "alpha", Value: []byte("one")}})
		db.Apply(p, []Op{{Key: "beta", Value: []byte("three")}})
	})
	k.Run(sim.Forever)
	if err := checkLayers(db, map[string]int{"alpha": 3, "beta": 5}); err != nil {
		t.Fatal(err)
	}
}

func TestOverwriteReturnsNewest(t *testing.T) {
	k := sim.NewKernel()
	db := testDB(k)
	k.Go("io", func(p *sim.Proc) {
		for i := 1; i <= 10; i++ {
			db.Apply(p, []Op{{Key: "k", Value: make([]byte, i)}})
		}
	})
	k.Run(sim.Forever)
	if err := checkLayers(db, map[string]int{"k": 10}); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteHidesKey(t *testing.T) {
	k := sim.NewKernel()
	db := testDB(k)
	k.Go("io", func(p *sim.Proc) {
		db.Apply(p, []Op{{Key: "k", Value: []byte("v")}})
		db.Apply(p, []Op{{Key: "k", Delete: true}})
	})
	k.Run(sim.Forever)
	if err := checkLayers(db, map[string]int{}); err != nil {
		t.Fatal(err)
	}
}

func TestGetAcrossFlushedTables(t *testing.T) {
	k := sim.NewKernel()
	db := smallDB(k)
	model := map[string]int{}
	k.Go("io", func(p *sim.Proc) {
		for i := 0; i < 500; i++ {
			key := fmt.Sprintf("key%04d", i)
			db.Apply(p, []Op{{Key: key, Value: make([]byte, i%100)}})
			model[key] = i % 100
		}
		p.Sleep(100 * sim.Millisecond) // let flush/compaction settle
	})
	k.Run(sim.Forever)
	if db.Stats().FlushBytes.Value() == 0 {
		t.Fatal("no flush happened; memtable threshold not exercised")
	}
	if err := checkLayers(db, model); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteSurvivesCompaction(t *testing.T) {
	k := sim.NewKernel()
	db := smallDB(k)
	k.Go("io", func(p *sim.Proc) {
		db.Apply(p, []Op{{Key: "victim", Value: []byte("x")}})
		db.Apply(p, []Op{{Key: "victim", Delete: true}})
		// Force many flushes and compactions on top.
		for i := 0; i < 2000; i++ {
			db.Apply(p, []Op{{Key: fmt.Sprintf("filler%05d", i), Value: make([]byte, 64)}})
		}
		p.Sleep(200 * sim.Millisecond)
	})
	k.Run(sim.Forever)
	if db.Stats().Compactions.Value() == 0 {
		t.Fatal("compaction never ran")
	}
	if _, ok := live(db)["victim"]; ok {
		t.Fatal("tombstoned key resurrected by compaction")
	}
}

func TestModelEquivalenceProperty(t *testing.T) {
	// Random puts, overwrites and deletes must agree with a map of value
	// sizes after every op, resolved across mem, imm, L0 and L1. Then
	// rotating the memtable until one compaction runs merges every table
	// into L1, which must hold exactly the model, without tombstones, and
	// that compaction must write exactly the model's bytes.
	type opDesc struct {
		Key    uint8
		Del    bool
		ValLen uint8
	}
	f := func(descs []opDesc) bool {
		k := sim.NewKernel()
		db := smallDB(k)
		model := map[string]int{}
		var err error
		k.Go("io", func(p *sim.Proc) {
			for i, d := range descs {
				key := fmt.Sprintf("k%02d", d.Key%32)
				if d.Del {
					db.Apply(p, []Op{{Key: key, Delete: true}})
					delete(model, key)
				} else {
					size := int(d.ValLen) * 8
					db.Apply(p, []Op{{Key: key, Value: make([]byte, size)}})
					model[key] = size
				}
				if err = checkLayers(db, model); err != nil {
					err = fmt.Errorf("after op %d: %w", i, err)
					return
				}
			}
			p.Sleep(100 * sim.Millisecond)
			s := db.Stats()
			c0, w0 := s.Compactions.Value(), s.CompactionWriteBytes.Value()
			for i := 0; s.Compactions.Value() == c0; i++ {
				key := fmt.Sprintf("k%02d", i%32)
				db.Apply(p, []Op{{Key: key, Value: make([]byte, 1)}})
				model[key] = 1
				db.mu.Lock(p)
				db.rotateMemtable()
				db.mu.Unlock(p)
				p.Sleep(100 * sim.Millisecond)
			}
			switch {
			case len(db.mem.entries)+len(db.imm)+len(db.l0) != 0 || len(db.l1) != 1:
				err = fmt.Errorf("after the drain: %d mem entries, %d imm, %d L0, %d L1 tables",
					len(db.mem.entries), len(db.imm), len(db.l0), len(db.l1))
			case s.Compactions.Value() != c0+1:
				err = fmt.Errorf("the drain ran %d compactions, want 1", s.Compactions.Value()-c0)
			case int64(s.CompactionWriteBytes.Value()-w0) != modelBytes(db, model):
				err = fmt.Errorf("compaction wrote %d bytes, model holds %d", s.CompactionWriteBytes.Value()-w0, modelBytes(db, model))
			default:
				err = checkLayers(db, model)
			}
		})
		k.Run(sim.Forever)
		if err != nil {
			t.Log(err)
		}
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomOpsMatchModel(t *testing.T) {
	// Random batches of puts, overwrites and deletes (some carrying a
	// value) over keys that include the empty key and keys longer than 255
	// bytes, mixed with forced memtable rotations and forced compactions.
	// A 64 KiB memtable holds a few hundred entries, so the first
	// memtable's index doubles several times and flushes and compactions
	// run throughout. After every step the resolved store must equal the
	// model and every table must pass checkLayers.
	keys := []string{""}
	for i := 0; i < 400; i++ {
		keys = append(keys, fmt.Sprintf("k%03d", i))
	}
	for i := 0; i < 8; i++ {
		keys = append(keys, strings.Repeat(string(rune('a'+i)), 250+30*i))
	}
	for _, seed := range []uint64{1, 2, 3} {
		k := sim.NewKernel()
		node := cpumodel.NewNode(k, "node", 8, cpumodel.JEMalloc)
		ssd := device.NewSSD(k, "ssd", device.DefaultSSDParams(), rng.New(1))
		params := DefaultParams()
		params.MemtableSize = 64 << 10
		db := New(k, "db", ssd, node, params)
		r := rng.New(seed)
		model := map[string]int{}
		maxSlots := 0
		var err error
		k.Go("io", func(p *sim.Proc) {
			apply := func(ops []Op) {
				db.Apply(p, ops)
				for _, op := range ops {
					if op.Delete {
						delete(model, op.Key)
					} else {
						model[op.Key] = len(op.Value)
					}
				}
			}
			rotate := func() {
				db.mu.Lock(p)
				db.rotateMemtable()
				db.mu.Unlock(p)
			}
			for step := 0; step < 1500; step++ {
				switch x := r.Intn(100); {
				case x < 3:
					rotate()
				case x < 4:
					for c0 := db.Stats().Compactions.Value(); db.Stats().Compactions.Value() == c0; {
						apply([]Op{{Key: keys[r.Intn(len(keys))], Value: make([]byte, 8)}})
						rotate()
						p.Sleep(10 * sim.Millisecond)
					}
				default:
					ops := make([]Op, 1+r.Intn(4))
					for i := range ops {
						ops[i] = Op{Key: keys[r.Intn(len(keys))], Value: make([]byte, r.Intn(300))}
						if r.Intn(5) == 0 {
							ops[i].Delete = true
							ops[i].Value = ops[i].Value[:r.Intn(2)*len(ops[i].Value)]
						}
					}
					apply(ops)
				}
				maxSlots = max(maxSlots, len(db.mem.index))
				if err = checkLayers(db, model); err != nil {
					err = fmt.Errorf("seed %d, step %d: %w", seed, step, err)
					return
				}
			}
		})
		k.Run(sim.Forever)
		if err != nil {
			t.Fatal(err)
		}
		if s := db.Stats(); s.Compactions.Value() < 3 || maxSlots < 8<<5 {
			t.Fatalf("seed %d: %d compactions, index peaked at %d slots (want 5 doublings); too little exercised",
				seed, s.Compactions.Value(), maxSlots)
		}
	}
}

func TestScanMatchesModelProperty(t *testing.T) {
	// Random op sequences (puts, overwrites, deletes) left to settle under
	// the store's own background flushes and compactions: the resolved
	// layers must agree with a map of sizes, and the live keys inside a
	// random [lo, hi) must be exactly the model's keys there.
	type opDesc struct {
		Key    uint8
		Del    bool
		ValLen uint8
	}
	f := func(descs []opDesc, loSel, hiSel uint8) bool {
		k := sim.NewKernel()
		db := smallDB(k)
		model := map[string]int{}
		k.Go("io", func(p *sim.Proc) {
			for _, d := range descs {
				key := fmt.Sprintf("k%02d", d.Key%32)
				if d.Del {
					db.Apply(p, []Op{{Key: key, Delete: true}})
					delete(model, key)
				} else {
					size := int(d.ValLen) * 8
					db.Apply(p, []Op{{Key: key, Value: make([]byte, size)}})
					model[key] = size
				}
			}
			p.Sleep(100 * sim.Millisecond) // settle flush/compaction
		})
		k.Run(sim.Forever)
		if err := checkLayers(db, model); err != nil {
			t.Log(err)
			return false
		}
		lo := fmt.Sprintf("k%02d", loSel%32)
		hi := fmt.Sprintf("k%02d", hiSel%32)
		if hi < lo {
			lo, hi = hi, lo
		}
		inRange := func(m map[string]int) map[string]int {
			out := map[string]int{}
			for key, size := range m {
				if key >= lo && key < hi {
					out[key] = size
				}
			}
			return out
		}
		return maps.Equal(inRange(live(db)), inRange(model))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestScanOrderingInvariant(t *testing.T) {
	// Whatever the put sequence, every flushed and compacted table is
	// strictly ascending by key, and the tables plus memtables hold every
	// key that was put.
	f := func(keysRaw []uint16) bool {
		k := sim.NewKernel()
		db := smallDB(k)
		model := map[string]int{}
		k.Go("io", func(p *sim.Proc) {
			for _, kr := range keysRaw {
				key := fmt.Sprintf("key%05d", kr%512)
				db.Apply(p, []Op{{Key: key, Value: []byte("v")}})
				model[key] = 1
			}
			p.Sleep(100 * sim.Millisecond)
		})
		k.Run(sim.Forever)
		if err := checkLayers(db, model); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCompactionPreservesScanAndGets(t *testing.T) {
	// Heavy churn (overwrites + deletes) forces flushes and compactions;
	// afterwards the resolved layers must still agree with the model and
	// L1 holds no tombstones — compaction may drop garbage, never live
	// data.
	k := sim.NewKernel()
	db := smallDB(k)
	model := map[string]int{}
	k.Go("io", func(p *sim.Proc) {
		for round := 0; round < 8; round++ {
			for i := 0; i < 300; i++ {
				key := fmt.Sprintf("key%04d", i%200)
				if (i+round)%7 == 0 {
					db.Apply(p, []Op{{Key: key, Delete: true}})
					delete(model, key)
				} else {
					size := 1 + (round*300+i)%48
					db.Apply(p, []Op{{Key: key, Value: make([]byte, size)}})
					model[key] = size
				}
			}
			p.Sleep(50 * sim.Millisecond)
		}
		p.Sleep(200 * sim.Millisecond)
	})
	k.Run(sim.Forever)
	if db.Stats().Compactions.Value() == 0 {
		t.Fatal("compaction never ran; churn insufficient")
	}
	if err := checkLayers(db, model); err != nil {
		t.Fatal(err)
	}
}

func TestScanSeesNewestVersionAcrossLayers(t *testing.T) {
	// Overwrite the same key so versions land in different layers (a
	// flushed table and the live memtable); only the newest size resolves.
	k := sim.NewKernel()
	db := smallDB(k)
	k.Go("io", func(p *sim.Proc) {
		db.Apply(p, []Op{{Key: "target", Value: make([]byte, 10)}})
		for i := 0; i < 500; i++ { // push the old version out through a flush
			db.Apply(p, []Op{{Key: fmt.Sprintf("fill%04d", i), Value: make([]byte, 64)}})
		}
		p.Sleep(100 * sim.Millisecond)
		db.Apply(p, []Op{{Key: "target", Value: make([]byte, 3)}})
	})
	k.Run(sim.Forever)
	if db.Stats().FlushBytes.Value() == 0 {
		t.Fatal("no flush happened; layering not exercised")
	}
	if got := live(db)["target"]; got != 3 {
		t.Fatalf("target size %d, want the newest 3", got)
	}
	var tabled bool
	for _, tab := range append(append([]*table{}, db.l0...), db.l1...) {
		for _, e := range tab.entries {
			tabled = tabled || string(tab.key(e)) == "target" && e.size == 10
		}
	}
	if !tabled {
		t.Fatal("the old version never reached a table; layering not exercised")
	}
}

func TestBatchCheaperThanSinglePuts(t *testing.T) {
	// The light-weight transaction claim: batching N ops into one Apply
	// must cost fewer WAL bytes and less time than N separate Puts.
	run := func(batch bool) (walBytes uint64, elapsed sim.Time) {
		k := sim.NewKernel()
		db := testDB(k)
		k.Go("io", func(p *sim.Proc) {
			for i := 0; i < 200; i++ {
				ops := make([]Op, 4)
				for j := range ops {
					ops[j] = Op{Key: fmt.Sprintf("k%d.%d", i, j), Value: make([]byte, 100)}
				}
				if batch {
					db.Apply(p, ops)
				} else {
					for _, op := range ops {
						db.Apply(p, []Op{op})
					}
				}
			}
		})
		k.Run(sim.Forever)
		return db.Stats().WALBytes.Value(), k.Now()
	}
	walSingle, timeSingle := run(false)
	walBatch, timeBatch := run(true)
	if walBatch >= walSingle {
		t.Fatalf("batching did not reduce WAL bytes: %d vs %d", walBatch, walSingle)
	}
	if timeBatch >= timeSingle {
		t.Fatalf("batching did not reduce time: %v vs %v", timeBatch, timeSingle)
	}
}

func TestWALOverheadWorseForSmallEntries(t *testing.T) {
	// Paper §3.4: for the same payload, small-block workloads make many
	// more KV operations, so fixed per-operation overhead (WAL headers,
	// entry framing) amplifies small writes far more than large ones.
	walWA := func(valSize int) float64 {
		k := sim.NewKernel()
		db := testDB(k) // big memtable: isolate WAL overhead from flushes
		k.Go("io", func(p *sim.Proc) {
			total := 256 << 10 // same payload either way
			n := total / valSize
			for i := 0; i < n; i++ {
				db.Apply(p, []Op{{Key: fmt.Sprintf("key%06d", i), Value: make([]byte, valSize)}})
			}
		})
		k.Run(sim.Forever)
		return float64(db.Stats().WALBytes.Value()) / float64(db.Stats().UserBytes.Value())
	}
	small := walWA(32)
	large := walWA(4096)
	if small <= 1.5*large {
		t.Fatalf("WAL amplification small=%.2f should dwarf large=%.2f", small, large)
	}
}

func TestCompactionAddsDeviceWrites(t *testing.T) {
	// Total device writes (WAL + flush + compaction) exceed user payload
	// once the LSM churns — the write amplification the paper measures.
	k := sim.NewKernel()
	db := smallDB(k)
	k.Go("io", func(p *sim.Proc) {
		for i := 0; i < 4000; i++ {
			db.Apply(p, []Op{{Key: fmt.Sprintf("key%06d", i), Value: make([]byte, 64)}})
		}
		p.Sleep(500 * sim.Millisecond)
	})
	k.Run(sim.Forever)
	if wa := db.Stats().WriteAmplification(); wa < 2.0 {
		t.Fatalf("write amplification = %.2f, want > 2 under churn", wa)
	}
	if db.Stats().CompactionWriteBytes.Value() == 0 {
		t.Fatal("compaction wrote nothing")
	}
}

// slowDB pairs a tiny memtable with a deliberately slow device, so
// compaction cannot keep up with the flush rate and writers stall.
func slowDB(k *sim.Kernel) *DB {
	node := cpumodel.NewNode(k, "node", 8, cpumodel.JEMalloc)
	sp := device.DefaultSSDParams()
	sp.TransferBytesPerSec = 2 << 20
	sp.WriteBaseSeq = 2 * sim.Millisecond
	ssd := device.NewSSD(k, "ssd", sp, rng.New(1))
	ssd.SetSustained(true)
	p := DefaultParams()
	p.MemtableSize = 2 << 10
	p.L0CompactTrigger = 2
	p.L0StallTrigger = 3
	return New(k, "db", ssd, node, p)
}

func TestWriteStallTriggers(t *testing.T) {
	k := sim.NewKernel()
	db := slowDB(k)
	k.Go("io", func(pp *sim.Proc) {
		// Large distinct values: L1 grows every cycle, so compaction time
		// grows until it falls behind the flush rate and writers stall.
		for i := 0; i < 800; i++ {
			db.Apply(pp, []Op{{Key: fmt.Sprintf("key%06d", i), Value: make([]byte, 4096)}})
		}
	})
	k.Run(sim.Forever)
	if db.Stats().Stalls.Value() == 0 {
		t.Fatal("no write stalls under compaction pressure")
	}
	if db.Stats().StallTime.Value() == 0 {
		t.Fatal("stall time not accounted")
	}
}

// TestStatsPinned runs one fixed sequence of the OSD's KV shapes (a PG-log
// append plus an omap overwrite per write, a deferred-write WAL put, and
// that WAL record's later delete) on a churning store and on a stalling
// one, and pins every counter and the finishing time as literals. A store
// refactor that keeps byte counts, CPU charges and device calls identical
// leaves every number here unchanged.
func TestStatsPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		db   func(*sim.Kernel) *DB
		want [11]uint64 // puts, deletes, user, wal, flush, compaction read/write, compactions, stalls, stall ns, k.Now
	}{
		{"small", smallDB, [11]uint64{1400, 200, 1125324, 1227724, 1162586, 5314875, 4302435, 50, 0, 0, 62332364}},
		{"slow", slowDB, [11]uint64{1400, 200, 1125324, 1227724, 1162586, 9544421, 8531981, 100, 4, 21530184, 11203257235}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			db := tc.db(k)
			pglog, omap, dwal := make([]byte, 180), make([]byte, 300), make([]byte, 4096)
			k.Go("io", func(p *sim.Proc) {
				for i := 0; i < 600; i++ {
					db.Apply(p, []Op{
						{Key: fmt.Sprintf("pglog.%06d", i), Value: pglog},
						{Key: fmt.Sprintf("omap.%03d.info", i%50), Value: omap},
					})
					switch i % 3 {
					case 0:
						db.Apply(p, []Op{{Key: fmt.Sprintf("dwal.%d", i), Value: dwal}})
					case 2:
						db.Apply(p, []Op{{Key: fmt.Sprintf("dwal.%d", i-2), Delete: true}})
					}
				}
			})
			k.Run(sim.Forever)
			s := db.Stats()
			got := [11]uint64{
				s.Puts.Value(), s.Deletes.Value(), s.UserBytes.Value(), s.WALBytes.Value(),
				s.FlushBytes.Value(), s.CompactionReadBytes.Value(), s.CompactionWriteBytes.Value(),
				s.Compactions.Value(), s.Stalls.Value(), s.StallTime.Value(), uint64(k.Now()),
			}
			if got != tc.want {
				t.Errorf("stats = %v\nwant    %v", got, tc.want)
			}
		})
	}
}

func TestEmptyApplyIsNoop(t *testing.T) {
	k := sim.NewKernel()
	db := testDB(k)
	k.Go("io", func(p *sim.Proc) {
		db.Apply(p, nil)
	})
	k.Run(sim.Forever)
	if db.Stats().WALBytes.Value() != 0 {
		t.Fatal("empty apply wrote WAL")
	}
}

func TestBadParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	k := sim.NewKernel()
	node := cpumodel.NewNode(k, "node", 8, cpumodel.JEMalloc)
	ssd := device.NewSSD(k, "ssd", device.DefaultSSDParams(), rng.New(1))
	p := DefaultParams()
	p.L0StallTrigger = p.L0CompactTrigger - 1
	New(k, "db", ssd, node, p)
}

func TestStatsCounts(t *testing.T) {
	k := sim.NewKernel()
	db := testDB(k)
	k.Go("io", func(p *sim.Proc) {
		db.Apply(p, []Op{{Key: "a", Value: []byte("1")}})
		db.Apply(p, []Op{{Key: "b", Delete: true}})
	})
	k.Run(sim.Forever)
	s := db.Stats()
	if s.Puts.Value() != 1 || s.Deletes.Value() != 1 {
		t.Fatalf("puts=%d deletes=%d", s.Puts.Value(), s.Deletes.Value())
	}
}
