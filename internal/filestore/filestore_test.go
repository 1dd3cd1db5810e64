package filestore

import (
	"fmt"
	"testing"

	"repro/internal/cpumodel"
	"repro/internal/device"
	"repro/internal/kvstore"
	"repro/internal/rng"
	"repro/internal/sim"
)

type world struct {
	k    *sim.Kernel
	ssd  *device.SSD
	node *cpumodel.Node
	fs   *FileStore
}

func newWorld(cfg Config) *world {
	k := sim.NewKernel()
	node := cpumodel.NewNode(k, "node", 8, cpumodel.JEMalloc)
	ssd := device.NewSSD(k, "ssd", device.DefaultSSDParams(), rng.New(1))
	db := kvstore.New(k, "db", ssd, node, kvstore.DefaultParams())
	fs := New(k, "fs", ssd, db, node, cfg, rng.New(2))
	return &world{k: k, ssd: ssd, node: node, fs: fs}
}

func basicTx(oid string, off, size int64, stamp uint64) *Transaction {
	return &Transaction{
		OID:        oid,
		Off:        off,
		Len:        size,
		PGLogKey:   "pglog." + oid,
		PGLogValue: make([]byte, 180),
		OmapOps: []kvstore.Op{
			{Key: "omap." + oid + ".snap", Value: make([]byte, 40)},
			{Key: "omap." + oid + ".info", Value: make([]byte, 250)},
		},
		XattrBytes: 250,
		Stamp:      stamp,
	}
}

func TestApplyUpdatesObjectState(t *testing.T) {
	cfg := CommunityConfig()
	cfg.VerifyData = true
	w := newWorld(cfg)
	w.k.Go("io", func(p *sim.Proc) {
		w.fs.Apply(p, basicTx("obj1", 0, 4096, 111))
		w.fs.Apply(p, basicTx("obj1", 8192, 4096, 222))
	})
	w.k.Run(sim.Forever)
	if w.fs.ObjectSize("obj1") != 12288 {
		t.Fatalf("size = %d", w.fs.ObjectSize("obj1"))
	}
	if w.fs.ObjectVersion("obj1") != 2 {
		t.Fatalf("version = %d", w.fs.ObjectVersion("obj1"))
	}
	if len(w.fs.objects) != 1 {
		t.Fatalf("objects = %d", len(w.fs.objects))
	}
}

func TestReadYourWriteStamps(t *testing.T) {
	cfg := LightConfig()
	cfg.VerifyData = true
	w := newWorld(cfg)
	w.k.Go("io", func(p *sim.Proc) {
		w.fs.Apply(p, basicTx("obj1", 4096, 4096, 777))
		stamp, ok := w.fs.Read(p, "obj1", 4096, 4096)
		if !ok || stamp != 777 {
			t.Errorf("stamp = %d, ok=%v", stamp, ok)
		}
		if _, ok := w.fs.Read(p, "missing", 0, 4096); ok {
			t.Error("missing object reported present")
		}
	})
	w.k.Run(sim.Forever)
}

func TestCommunityMakesMoreSyscalls(t *testing.T) {
	count := func(cfg Config) uint64 {
		w := newWorld(cfg)
		w.k.Go("io", func(p *sim.Proc) {
			for i := 0; i < 100; i++ {
				w.fs.Apply(p, basicTx(fmt.Sprintf("o%d", i), 0, 4096, 0))
			}
		})
		w.k.Run(sim.Forever)
		return w.fs.Stats().Syscalls.Value()
	}
	community := count(CommunityConfig())
	light := count(LightConfig())
	if light*2 >= community {
		t.Fatalf("light tx syscalls %d not well below community %d", light, community)
	}
}

func TestWriteThroughCacheRemovesMetaReads(t *testing.T) {
	metaReads := func(cfg Config) uint64 {
		w := newWorld(cfg)
		w.k.Go("io", func(p *sim.Proc) {
			for i := 0; i < 200; i++ {
				w.fs.Apply(p, basicTx(fmt.Sprintf("o%d", i), 0, 4096, 0))
			}
		})
		w.k.Run(sim.Forever)
		return w.fs.Stats().MetaReads.Value()
	}
	if n := metaReads(LightConfig()); n != 0 {
		t.Fatalf("light tx issued %d metadata reads, want 0", n)
	}
	if n := metaReads(CommunityConfig()); n < 80 {
		t.Fatalf("community issued only %d metadata reads in 200 writes", n)
	}
}

func TestCommunityMixesReadsIntoWritePath(t *testing.T) {
	// Community metadata reads hit the same SSD that serves data writes —
	// the mixed read/write pattern the light tx avoids.
	w := newWorld(CommunityConfig())
	w.k.Go("io", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			w.fs.Apply(p, basicTx(fmt.Sprintf("o%d", i), 0, 4096, 0))
		}
	})
	w.k.Run(sim.Forever)
	if w.ssd.Stats().Reads.Value() == 0 {
		t.Fatal("no device reads during community write workload")
	}
}

func TestLightTxFasterThanCommunity(t *testing.T) {
	elapsed := func(cfg Config) sim.Time {
		w := newWorld(cfg)
		w.ssd.SetSustained(true)
		w.k.Go("io", func(p *sim.Proc) {
			for i := 0; i < 300; i++ {
				w.fs.Apply(p, basicTx(fmt.Sprintf("o%d", i%50), int64(i)*4096, 4096, 0))
			}
		})
		w.k.Run(sim.Forever)
		return w.k.Now()
	}
	community := elapsed(CommunityConfig())
	light := elapsed(LightConfig())
	if light >= community {
		t.Fatalf("light tx (%v) not faster than community (%v)", light, community)
	}
}

func TestBatchingReducesKVWALBytes(t *testing.T) {
	wal := func(cfg Config) uint64 {
		w := newWorld(cfg)
		w.k.Go("io", func(p *sim.Proc) {
			for i := 0; i < 100; i++ {
				w.fs.Apply(p, basicTx(fmt.Sprintf("o%d", i), 0, 4096, 0))
			}
		})
		w.k.Run(sim.Forever)
		return w.fs.DB().Stats().WALBytes.Value()
	}
	if batched, single := wal(LightConfig()), wal(CommunityConfig()); batched >= single {
		t.Fatalf("batched WAL %d >= single-op WAL %d", batched, single)
	}
}

func TestReadCharges(t *testing.T) {
	w := newWorld(CommunityConfig())
	w.k.Go("io", func(p *sim.Proc) {
		w.fs.Apply(p, basicTx("obj", 0, 4096, 0))
		w.fs.Read(p, "obj", 0, 4096)
	})
	w.k.Run(sim.Forever)
	if w.fs.Stats().Reads.Value() != 1 {
		t.Fatal("read not counted")
	}
	if w.fs.ObjectSize("nope") != 0 || w.fs.ObjectVersion("nope") != 0 {
		t.Fatal("absent object accessors wrong")
	}
}

func TestTransactionWithoutData(t *testing.T) {
	// Pure metadata transactions (e.g. PG log only) must work.
	w := newWorld(LightConfig())
	w.k.Go("io", func(p *sim.Proc) {
		w.fs.Apply(p, &Transaction{
			OID:        "meta-only",
			PGLogKey:   "pglog.x",
			PGLogValue: make([]byte, 100),
		})
	})
	w.k.Run(sim.Forever)
	if w.fs.Stats().DataBytes.Value() != 0 {
		t.Fatal("no-data tx wrote data")
	}
	if w.fs.ObjectVersion("meta-only") != 1 {
		t.Fatal("version not bumped")
	}
}

func TestConfigAccessors(t *testing.T) {
	w := newWorld(LightConfig())
	if !w.fs.cfg.LightTx || w.fs.Device() == nil || w.fs.DB() == nil {
		t.Fatal("accessors broken")
	}
}

func TestWritebackApplyBuffersAndFlushes(t *testing.T) {
	cfg := CommunityConfig()
	cfg.ApplyWriteback = true
	cfg.dirtyLimit = 64 << 10
	cfg.VerifyData = true
	w := newWorld(cfg)
	w.k.Go("io", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			w.fs.Apply(p, basicTx(fmt.Sprintf("o%d", i), 0, 4096, uint64(i)))
		}
		p.Sleep(100 * sim.Millisecond) // flushers drain
	})
	w.k.Run(sim.Forever)
	if w.fs.dirty != 0 {
		t.Fatalf("dirty bytes = %d after drain", w.fs.dirty)
	}
	// All data eventually reached the device.
	if w.ssd.Stats().BytesWritten.Value() < 50*4096 {
		t.Fatalf("device got %d data bytes", w.ssd.Stats().BytesWritten.Value())
	}
	// Object state is still correct.
	if w.fs.ObjectVersion("o7") != 1 {
		t.Fatal("writeback lost object state")
	}
}

func TestWritebackDirtyLimitBlocks(t *testing.T) {
	// With a tiny dirty limit and a slow device, appliers must block: the
	// dirty high-water mark stays bounded.
	k := sim.NewKernel()
	node := cpumodel.NewNode(k, "node", 8, cpumodel.JEMalloc)
	sp := device.DefaultSSDParams()
	sp.TransferBytesPerSec = 1 << 20 // glacial
	sp.WriteBaseSeq = 5 * sim.Millisecond
	ssd := device.NewSSD(k, "ssd", sp, rng.New(1))
	db := kvstore.New(k, "db", ssd, node, kvstore.DefaultParams())
	cfg := LightConfig()
	cfg.ApplyWriteback = true
	cfg.dirtyLimit = 32 << 10
	fs := New(k, "fs", ssd, db, node, cfg, rng.New(2))
	maxDirty := int64(0)
	k.Go("io", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			fs.Apply(p, basicTx(fmt.Sprintf("o%d", i), 0, 4096, 0))
			if d := fs.dirty; d > maxDirty {
				maxDirty = d
			}
		}
	})
	k.Run(20 * sim.Second)
	if maxDirty > 32<<10+4096 {
		t.Fatalf("dirty high-water %d exceeded limit", maxDirty)
	}
	if maxDirty == 0 {
		t.Fatal("writeback never buffered")
	}
}

// TestReadDamagedMatchesExtentDamaged: a read's Damaged verdict, judged
// from the object the read found, is ExtentDamaged of its extent, asked in
// the callback that ends the read: for a clean object, a rotten and a
// rewritten extent of a per-extent damaged object, a coarsely damaged
// object (no stamps, so no per-extent record) and an absent object.
func TestReadDamagedMatchesExtentDamaged(t *testing.T) {
	type read struct {
		oid  string
		off  int64
		want bool
	}
	run := func(verify bool, reads []read) {
		cfg := LightConfig()
		cfg.VerifyData = verify
		w := newWorld(cfg)
		w.k.Go("io", func(p *sim.Proc) {
			for _, oid := range []string{"clean", "damaged"} {
				w.fs.Apply(p, basicTx(oid, 0, 4096, 1))
				w.fs.Apply(p, basicTx(oid, 4096, 4096, 2))
			}
			w.fs.CorruptObject("damaged")
			if verify {
				w.fs.Apply(p, basicTx("damaged", 4096, 4096, 3)) // heals that extent
			}
			for _, rd := range reads {
				r := &ReadReq{Done: sim.Wake, Arg: p, OID: rd.oid, Off: rd.off, Size: 4096}
				w.fs.ReadCall(r)
				p.Await()
				if ext := w.fs.ExtentDamaged(rd.oid, rd.off); r.Damaged != ext || r.Damaged != rd.want {
					t.Errorf("verify=%v %s@%d: Damaged %v, ExtentDamaged %v, want %v",
						verify, rd.oid, rd.off, r.Damaged, ext, rd.want)
				}
			}
		})
		w.k.Run(sim.Forever)
	}
	run(true, []read{
		{"clean", 0, false},
		{"damaged", 0, true},     // rotten
		{"damaged", 4096, false}, // rewritten since the corruption
		{"absent", 0, false},
	})
	run(false, []read{
		{"clean", 4096, false},
		{"damaged", 0, true}, // coarse: every extent counts as damaged
		{"damaged", 4096, true},
		{"absent", 0, false},
	})
}
