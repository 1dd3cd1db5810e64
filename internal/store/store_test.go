package store

import (
	"fmt"
	"testing"

	"repro/internal/cpumodel"
	"repro/internal/device"
	"repro/internal/filestore"
	"repro/internal/kvstore"
	"repro/internal/rng"
	"repro/internal/sim"
)

type world struct {
	k     *sim.Kernel
	node  *cpumodel.Node
	fs    *filestore.FileStore
	nvram *device.NVRAM
}

func newWorld() *world {
	k := sim.NewKernel()
	node := cpumodel.NewNode(k, "node", 8, cpumodel.JEMalloc)
	ssd := device.NewSSD(k, "ssd", device.DefaultSSDParams(), rng.New(1))
	db := kvstore.New(k, "db", ssd, node, kvstore.DefaultParams())
	cfg := filestore.LightConfig()
	cfg.VerifyData = true
	fs := filestore.New(k, "fs", ssd, db, node, cfg, rng.New(2))
	nvram := device.NewNVRAM(k, "nvram", device.DefaultNVRAMParams())
	return &world{k: k, node: node, fs: fs, nvram: nvram}
}

func meta(oid string, off, length int64, stamp uint64) *filestore.Transaction {
	return &filestore.Transaction{
		OID: oid, Off: off, Len: length, Stamp: stamp,
		PGLogKey: "pglog." + oid, PGLogValue: make([]byte, 180),
	}
}

func txn(seq uint64, oid string, length int64, stamp uint64) *Txn {
	return &Txn{PG: 1, Seq: seq, OID: oid, Off: 0, Len: length, Stamp: stamp, Bytes: length + 300}
}

// await runs call (a backend's CommitCall or ApplyCall) on t from p and
// waits for its Done.
func await(p *sim.Proc, call func(*Txn, *filestore.Transaction), t *Txn, m *filestore.Transaction) {
	t.Done, t.Arg = sim.Wake, p
	call(t, m)
	p.Await()
}

// commitApplyCycle pushes one write through the full CommitCall/Committed/
// ApplyCall/Applied sequence the way the OSD pipeline does.
func commitApplyCycle(p *sim.Proc, b Backend, t *Txn) {
	var m *filestore.Transaction
	if b.MetaAtCommit() {
		m = meta(t.OID, t.Off, t.Len, t.Stamp)
	}
	await(p, b.CommitCall, t, m)
	b.Committed(t)
	if !b.MetaAtCommit() {
		m = meta(t.OID, t.Off, t.Len, t.Stamp)
	}
	await(p, b.ApplyCall, t, m)
	b.Applied(t)
}

// Both backends must satisfy the drain and read-your-write contract of the
// seam; the loop keeps the assertions backend-neutral on purpose.
func TestBackendContract(t *testing.T) {
	for _, name := range []string{BackendFileStore, BackendDirectStore} {
		name := name
		t.Run(name, func(t *testing.T) {
			w := newWorld()
			var b Backend
			if name == BackendFileStore {
				b = NewFileStoreBackend(w.k, w.fs, w.nvram, 8<<20)
			} else {
				b = NewDirectStore(w.k, w.fs, w.node)
			}
			b.Reopen("g0")
			if b.Name() != name {
				t.Fatalf("Name() = %q", b.Name())
			}
			w.k.Go("io", func(p *sim.Proc) {
				for i := uint64(1); i <= 8; i++ {
					// Straddle the direct backend's 64K WAL threshold.
					length := int64(4096)
					if i%2 == 0 {
						length = 128 << 10
					}
					tx := txn(i, fmt.Sprintf("obj%d", i), length, 100+i)
					commitApplyCycle(p, b, tx)
					if got, ok := w.fs.Read(p, tx.OID, 0, length); !ok || got != 100+i {
						t.Errorf("read %s: stamp %d ok=%v, want %d", tx.OID, got, ok, 100+i)
					}
				}
			})
			w.k.Run(sim.Forever)
			if ops, bytes := b.PendingOps(), b.PendingBytes(); ops != 0 || bytes != 0 {
				t.Fatalf("not drained after full cycles: %d ops, %d bytes", ops, bytes)
			}
		})
	}
}

// TestBackendIntegrityContract commits through each backend and checks the
// object table they share: both must land their writes in the filestore
// they were built over, so that enumeration, version/size/damage queries,
// corruption, per-extent damage, export/ingest round-trips and stray
// deletion there see them. Scrub, repair and recovery depend on it.
func TestBackendIntegrityContract(t *testing.T) {
	for _, name := range []string{BackendFileStore, BackendDirectStore} {
		name := name
		t.Run(name, func(t *testing.T) {
			w := newWorld()
			var b Backend
			if name == BackendFileStore {
				b = NewFileStoreBackend(w.k, w.fs, w.nvram, 8<<20)
			} else {
				b = NewDirectStore(w.k, w.fs, w.node)
			}
			b.Reopen("g0")
			w.k.Go("io", func(p *sim.Proc) {
				for i := uint64(1); i <= 3; i++ {
					commitApplyCycle(p, b, txn(i, fmt.Sprintf("obj%d", i), 4096, 100+i))
				}
			})
			w.k.Run(sim.Forever)

			fs := w.fs
			names := fs.ObjectNames()
			if len(names) != 3 {
				t.Fatalf("ObjectNames = %v, want 3 objects", names)
			}
			for i, n := range names {
				if want := fmt.Sprintf("obj%d", i+1); n != want {
					t.Fatalf("ObjectNames[%d] = %q, want %q (sorted)", i, n, want)
				}
			}
			if v := fs.ObjectVersion("obj1"); v != 1 {
				t.Fatalf("ObjectVersion = %d, want 1", v)
			}
			if s := fs.ObjectSize("obj1"); s != 4096 {
				t.Fatalf("ObjectSize = %d, want 4096", s)
			}
			if fs.ObjectDamaged("obj1") || fs.ExtentDamaged("obj1", 0) {
				t.Fatal("fresh object reports damage")
			}

			if !fs.CorruptObject("obj1") {
				t.Fatal("CorruptObject failed on existing object")
			}
			if !fs.ObjectDamaged("obj1") || !fs.ExtentDamaged("obj1", 0) {
				t.Fatal("corruption not visible in the table")
			}
			if fs.ExtentDamaged("obj1", 8192) {
				t.Fatal("extent never written reports rot")
			}

			// Export the healthy copy, ingest it over the damaged one: the
			// repair path in one motion.
			healthy, ok := fs.ExportObject("obj2")
			if !ok {
				t.Fatal("ExportObject missed obj2")
			}
			rotten, _ := fs.ExportObject("obj1")
			if !rotten.Damaged || len(rotten.Rot) == 0 {
				t.Fatalf("export dropped damage state: %+v", rotten)
			}
			w.k.Go("heal", func(p *sim.Proc) {
				st := rotten.Cleansed()
				st.Stamps = healthy.Stamps
				st.Version = rotten.Version
				fs.IngestObject(p, "obj1", st)
			})
			w.k.Run(sim.Forever)
			if fs.ObjectDamaged("obj1") || fs.ExtentDamaged("obj1", 0) {
				t.Fatal("ingest did not clear the damage")
			}

			if !fs.DeleteObject("obj3") {
				t.Fatal("DeleteObject failed on existing object")
			}
			if fs.DeleteObject("obj3") {
				t.Fatal("DeleteObject succeeded twice")
			}
			if got := len(fs.ObjectNames()); got != 2 {
				t.Fatalf("objects after delete = %d, want 2", got)
			}
		})
	}
}

// TestBackendReplay commits writes without applying them (the crash
// window), then replays: every entry must land, in commit order, and the
// write-ahead state must drain.
func TestBackendReplay(t *testing.T) {
	for _, name := range []string{BackendFileStore, BackendDirectStore} {
		name := name
		t.Run(name, func(t *testing.T) {
			w := newWorld()
			var b Backend
			if name == BackendFileStore {
				b = NewFileStoreBackend(w.k, w.fs, w.nvram, 8<<20)
			} else {
				b = NewDirectStore(w.k, w.fs, w.node)
			}
			b.Reopen("g0")
			const n = 5
			w.k.Go("commit", func(p *sim.Proc) {
				for i := uint64(1); i <= n; i++ {
					tx := txn(i, fmt.Sprintf("obj%d", i), 4096, 100+i)
					var m *filestore.Transaction
					if b.MetaAtCommit() {
						m = meta(tx.OID, tx.Off, tx.Len, tx.Stamp)
					}
					await(p, b.CommitCall, tx, m)
					b.Committed(tx)
				}
			})
			w.k.Run(sim.Forever)
			if b.PendingOps() != n {
				t.Fatalf("pending = %d, want %d", b.PendingOps(), n)
			}
			var horizon uint64
			b.UnappliedSeqs(func(pg uint32, seq uint64) {
				if seq > horizon {
					horizon = seq
				}
			})
			if horizon != n {
				t.Fatalf("durable horizon = %d, want %d", horizon, n)
			}

			// Crash: the daemon generation is rebuilt, then replay.
			b.Reopen("g1")
			var order []uint64
			w.k.Go("replay", func(p *sim.Proc) {
				replayed := b.Replay(p, ReplayHooks{
					BuildMeta: func(pg uint32, oid string, off, length int64, stamp uint64) *filestore.Transaction {
						return meta(oid, off, length, stamp)
					},
					Applied: func(pg uint32, seq uint64, m *filestore.Transaction) {
						order = append(order, seq)
					},
				})
				if replayed != n {
					t.Errorf("replayed %d, want %d", replayed, n)
				}
				for i := uint64(1); i <= n; i++ {
					oid := fmt.Sprintf("obj%d", i)
					if got, ok := w.fs.Read(p, oid, 0, 4096); !ok || got != 100+i {
						t.Errorf("post-replay read %s: stamp %d ok=%v, want %d", oid, got, ok, 100+i)
					}
				}
			})
			w.k.Run(sim.Forever)
			for i, seq := range order {
				if seq != uint64(i+1) {
					t.Fatalf("replay order %v not commit order", order)
				}
			}
			if ops, bytes := b.PendingOps(), b.PendingBytes(); ops != 0 || bytes != 0 {
				t.Fatalf("not drained after replay: %d ops, %d bytes", ops, bytes)
			}
		})
	}
}

// TestDirectStoreWALThreshold pins the small/large split and its
// accounting: sub-threshold payloads ride the WAL and are flushed at
// apply; larger payloads are written directly at commit and never hold
// WAL credit.
func TestDirectStoreWALThreshold(t *testing.T) {
	w := newWorld()
	d := NewDirectStore(w.k, w.fs, w.node)
	d.Reopen("g0")
	w.k.Go("io", func(p *sim.Proc) {
		small := txn(1, "small", walThreshold, 7) // exactly at threshold: WAL
		await(p, d.CommitCall, small, meta("small", 0, walThreshold, 7))
		d.Committed(small)
		if got := d.PendingBytes(); got != walThreshold {
			t.Errorf("WAL credit after small commit = %d, want %d", got, walThreshold)
		}
		large := txn(2, "large", walThreshold+1, 8) // one past threshold: direct
		await(p, d.CommitCall, large, meta("large", 0, walThreshold+1, 8))
		d.Committed(large)
		if got := d.PendingBytes(); got != walThreshold {
			t.Errorf("large write took WAL credit: pending = %d", got)
		}
		await(p, d.ApplyCall, small, nil)
		d.Applied(small)
		await(p, d.ApplyCall, large, nil)
		d.Applied(large)
	})
	w.k.Run(sim.Forever)
	st := &d.stats
	if st.SmallWrites.Value() != 1 || st.LargeWrites.Value() != 1 {
		t.Fatalf("small=%d large=%d, want 1/1", st.SmallWrites.Value(), st.LargeWrites.Value())
	}
	if st.WALBytes.Value() != walThreshold || st.DirectBytes.Value() != walThreshold+1 {
		t.Fatalf("wal=%d direct=%d bytes", st.WALBytes.Value(), st.DirectBytes.Value())
	}
	if st.Flushes.Value() != 1 {
		t.Fatalf("flushes = %d, want 1 (only the WAL write defers)", st.Flushes.Value())
	}
	if d.PendingBytes() != 0 || d.PendingOps() != 0 {
		t.Fatalf("not drained: %d bytes, %d ops", d.PendingBytes(), d.PendingOps())
	}
}

// TestDirectStoreZombieApply reproduces the crashed-generation race: a
// worker parked inside Apply when the daemon crashed resumes after Replay
// already flushed its entry. The finish must be exactly-once — WAL credit
// may not go negative and pending counts stay zero.
func TestDirectStoreZombieApply(t *testing.T) {
	w := newWorld()
	d := NewDirectStore(w.k, w.fs, w.node)
	d.Reopen("g0")
	tx := txn(1, "obj", 4096, 9)
	w.k.Go("commit", func(p *sim.Proc) {
		await(p, d.CommitCall, tx, meta("obj", 0, 4096, 9))
		d.Committed(tx)
	})
	w.k.Run(sim.Forever)

	// Crash now; replay flushes the entry.
	d.Reopen("g1")
	w.k.Go("replay", func(p *sim.Proc) {
		if n := d.Replay(p, ReplayHooks{Applied: func(uint32, uint64, *filestore.Transaction) {}}); n != 1 {
			t.Errorf("replayed %d, want 1", n)
		}
	})
	w.k.Run(sim.Forever)
	if d.PendingBytes() != 0 {
		t.Fatalf("pending after replay = %d", d.PendingBytes())
	}

	// The zombie worker of generation g0 resumes and runs its apply half.
	w.k.Go("zombie", func(p *sim.Proc) { await(p, d.ApplyCall, tx, nil) })
	w.k.Run(sim.Forever)
	if d.PendingBytes() != 0 {
		t.Fatalf("zombie apply double-returned WAL credit: pending = %d", d.PendingBytes())
	}
	if st := &d.stats; st.Replays.Value() != 1 {
		t.Fatalf("replays = %d, want 1", st.Replays.Value())
	}
}

func TestCheckBackend(t *testing.T) {
	for _, name := range []string{"", BackendFileStore, BackendDirectStore} {
		if err := CheckBackend(name); err != nil {
			t.Errorf("CheckBackend(%q) = %v", name, err)
		}
	}
	for _, name := range []string{"bogus", "FileStore", "bluestore"} {
		if err := CheckBackend(name); err == nil {
			t.Errorf("CheckBackend(%q) accepted", name)
		}
	}
}
