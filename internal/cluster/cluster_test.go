package cluster

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/osd"
	"repro/internal/sim"
	"repro/internal/store"
)

// smallParams returns a 2-node mini cluster for fast integration tests.
func smallParams(cfg osd.Config) Params {
	p := DefaultParams()
	p.OSDNodes = 2
	p.OSDsPerNode = 2
	p.SSDsPerOSD = 2
	p.PGs = 64
	p.OSD = cfg
	p.OSD.FStore.VerifyData = true
	p.Sustained = false
	return p
}

func profiles() map[string]osd.Config {
	return map[string]osd.Config{
		"community": osd.Community().Config(),
		"afceph":    osd.AFCeph().Config(),
	}
}

// TestEveryTuningFieldHasEffect catches an optimization added to osd.Tuning
// but not to its mapping: each field set alone must change the params.
func TestEveryTuningFieldHasEffect(t *testing.T) {
	stock := ParamsFor(osd.Tuning{})
	fields := reflect.TypeOf(osd.Tuning{})
	for i := 0; i < fields.NumField(); i++ {
		var tu osd.Tuning
		reflect.ValueOf(&tu).Elem().Field(i).SetBool(true)
		if reflect.DeepEqual(ParamsFor(tu), stock) {
			t.Errorf("Tuning.%s alone leaves the cluster params unchanged", fields.Field(i).Name)
		}
	}
}

// TestNewConfiguresEveryOSD: New numbers the daemons 0..n-1 and gives each
// one the configured OSD settings.
func TestNewConfiguresEveryOSD(t *testing.T) {
	p := smallParams(osd.AFCeph().Config())
	p.OSD.ID = 7 // ignored: New numbers the daemons
	p.OSD.JournalSize = 8 << 20
	p.OSD.TraceSample = 3
	for _, backend := range []string{store.BackendFileStore, store.BackendDirectStore} {
		p.OSD.Backend = backend
		osds := New(p).OSDs()
		if len(osds) != 4 {
			t.Fatalf("%d OSDs, want 4", len(osds))
		}
		for i, o := range osds {
			cfg := o.Config()
			if cfg.ID != i || cfg.JournalSize != 8<<20 || cfg.TraceSample != 3 || cfg.Backend != backend {
				t.Errorf("%s osd.%d: id=%d journal=%d trace=%d backend=%q",
					backend, i, cfg.ID, cfg.JournalSize, cfg.TraceSample, cfg.Backend)
			}
			if hasRing := o.Journal() != nil; hasRing != (backend == store.BackendFileStore) {
				t.Errorf("%s osd.%d: journal ring present = %v", backend, i, hasRing)
			}
			if j := o.Journal(); j != nil && j.Size() != 8<<20 {
				t.Errorf("osd.%d journal ring is %d bytes, want %d", i, j.Size(), 8<<20)
			}
		}
	}
}

// TestParamsValidateTopology: every topology field below 1 is rejected by
// name. Each of these once passed Validate, and New then panicked (no RAID0
// member, no CPU server) or the first write divided by zero PGs.
func TestParamsValidateTopology(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*Params)
	}{
		{"OSDNodes", func(p *Params) { p.OSDNodes = 0 }},
		{"OSDNodes", func(p *Params) { p.OSDNodes = -1 }},
		{"OSDsPerNode", func(p *Params) { p.OSDsPerNode = 0 }},
		{"SSDsPerOSD", func(p *Params) { p.SSDsPerOSD = 0 }},
		{"CoresPerNode", func(p *Params) { p.CoresPerNode = 0 }},
		{"PGs", func(p *Params) { p.PGs = 0 }},
	} {
		p := ParamsFor(osd.AFCeph())
		tc.set(&p)
		err := p.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s below 1: Validate() = %v, want an error naming %s", tc.field, err, tc.field)
		}
	}
	if err := ParamsFor(osd.AFCeph()).Validate(); err != nil {
		t.Errorf("paper testbed rejected: %v", err)
	}
}

func TestParamsValidatePoolWidth(t *testing.T) {
	for _, tc := range []struct {
		nodes, perNode int
		pool           string
		ok             bool
	}{
		{1, 4, "rep5", false},
		{1, 4, "ec4+2", false},
		{1, 4, "bogus", false},
		{1, 4, "rep4", true},
		{3, 2, "ec4+2", true}, // the EC chaos shape, exactly at the limit
		{4, 4, "rep2", true},
		{4, 4, "rep0", false},
		{4, 4, "", false}, // Params has no implicit pool
	} {
		p := DefaultParams()
		p.OSDNodes, p.OSDsPerNode, p.Pool = tc.nodes, tc.perNode, tc.pool
		if err := p.Validate(); (err == nil) != tc.ok {
			t.Errorf("%dx%d OSDs, pool %q: Validate() = %v", tc.nodes, tc.perNode, tc.pool, err)
		}
	}
	p := DefaultParams()
	p.OSD.Backend = "bogus"
	if err := p.Validate(); err == nil {
		t.Error("backend \"bogus\" accepted")
	}
	p = smallParams(osd.AFCeph().Config())
	p.Pool = "ec4+2"
	defer func() {
		if recover() == nil {
			t.Fatal("New built a 4-OSD cluster for a 6-wide pool")
		}
	}()
	New(p)
}

func TestWriteAckAndReadBack(t *testing.T) {
	for name, prof := range profiles() {
		t.Run(name, func(t *testing.T) {
			c := New(smallParams(prof))
			cl := c.NewClient()
			var gotStamp uint64
			var exists bool
			c.K.Go("io", func(p *sim.Proc) {
				cl.WriteObject(p, "obj-a", 0, 4096, 42)
				gotStamp, exists = cl.ReadObject(p, "obj-a", 0, 4096)
			})
			c.K.Run(10 * sim.Second)
			if !exists || gotStamp != 42 {
				t.Fatalf("read back stamp=%d exists=%v", gotStamp, exists)
			}
		})
	}
}

func TestWriteIsReplicated(t *testing.T) {
	for name, prof := range profiles() {
		t.Run(name, func(t *testing.T) {
			c := New(smallParams(prof))
			cl := c.NewClient()
			c.K.Go("io", func(p *sim.Proc) {
				for i := 0; i < 20; i++ {
					cl.WriteObject(p, fmt.Sprintf("obj-%d", i), 0, 4096, uint64(i))
				}
			})
			c.K.Run(20 * sim.Second)
			var primaries, replicas uint64
			for _, o := range c.OSDs() {
				primaries += o.Metrics().WriteOps.Value()
				replicas += o.Metrics().RepOps.Value()
			}
			if primaries != 20 || replicas != 20 {
				t.Fatalf("primaries=%d replicas=%d, want 20/20 (replication factor 2)",
					primaries, replicas)
			}
		})
	}
}

func TestReplicaHoldsDataAfterAck(t *testing.T) {
	// After an ack, both the primary's and the replica's filestores must
	// eventually hold the object (strong consistency / splay replication).
	c := New(smallParams(osd.AFCeph().Config()))
	cl := c.NewClient()
	c.K.Go("io", func(p *sim.Proc) {
		cl.WriteObject(p, "replicated-obj", 0, 8192, 7)
		p.Sleep(2 * sim.Second) // let filestore applies drain
	})
	c.K.Run(20 * sim.Second)
	holders := 0
	for _, o := range c.OSDs() {
		if o.FileStore().ObjectVersion("replicated-obj") > 0 {
			holders++
		}
	}
	if holders != 2 {
		t.Fatalf("object held by %d OSDs, want 2", holders)
	}
}

func TestOverwriteReturnsNewestStamp(t *testing.T) {
	for name, prof := range profiles() {
		t.Run(name, func(t *testing.T) {
			c := New(smallParams(prof))
			cl := c.NewClient()
			var stamp uint64
			c.K.Go("io", func(p *sim.Proc) {
				for i := 1; i <= 5; i++ {
					cl.WriteObject(p, "hot", 4096, 4096, uint64(i*100))
				}
				stamp, _ = cl.ReadObject(p, "hot", 4096, 4096)
			})
			c.K.Run(20 * sim.Second)
			if stamp != 500 {
				t.Fatalf("stamp = %d, want 500 (newest write)", stamp)
			}
		})
	}
}

func TestConcurrentClientsAllAcked(t *testing.T) {
	for name, prof := range profiles() {
		t.Run(name, func(t *testing.T) {
			c := New(smallParams(prof))
			const clients, opsPer = 8, 25
			done := 0
			for i := 0; i < clients; i++ {
				i := i
				cl := c.NewClient()
				c.K.Go(fmt.Sprintf("client%d", i), func(p *sim.Proc) {
					for j := 0; j < opsPer; j++ {
						cl.WriteObject(p, fmt.Sprintf("o.%d.%d", i, j), 0, 4096, 1)
						done++
					}
				})
			}
			c.K.Run(60 * sim.Second)
			if done != clients*opsPer {
				t.Fatalf("done = %d, want %d (some ops never acked)", done, clients*opsPer)
			}
		})
	}
}

func TestBlockDeviceStriping(t *testing.T) {
	c := New(smallParams(osd.AFCeph().Config()))
	cl := c.NewClient()
	bd := cl.OpenDevice("img0", 64<<20)
	var stamp uint64
	var exists bool
	c.K.Go("io", func(p *sim.Proc) {
		// Write across an object boundary (4MB objects).
		bd.WriteAt(p, ObjectSize-4096, 8192, 99)
		stamp, exists = bd.ReadAt(p, ObjectSize-4096, 8192)
	})
	c.K.Run(20 * sim.Second)
	if !exists || stamp != 99 {
		t.Fatalf("stamp=%d exists=%v", stamp, exists)
	}
	// The boundary write must touch two distinct objects.
	img := Image{Name: "img0", Size: 64 << 20}
	oidA, pgA, _ := img.locate(ObjectSize-4096, c.Params.PGs)
	oidB, pgB, _ := img.locate(ObjectSize, c.Params.PGs)
	if oidA == oidB {
		t.Fatal("boundary offsets mapped to one object")
	}
	// The cached PG is the object's placement.
	if pgA != ObjectToPGForTest(oidA, c) || pgB != ObjectToPGForTest(oidB, c) {
		t.Fatalf("cached PGs %d, %d; placement says %d, %d",
			pgA, pgB, ObjectToPGForTest(oidA, c), ObjectToPGForTest(oidB, c))
	}
}

func TestBlockDeviceBoundsChecked(t *testing.T) {
	c := New(smallParams(osd.AFCeph().Config()))
	cl := c.NewClient()
	bd := cl.OpenDevice("img0", 1<<20)
	c.K.Go("io", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("out-of-bounds write did not panic")
			}
		}()
		bd.WriteAt(p, 1<<20, 4096, 0)
	})
	c.K.Run(sim.Second)
}

func TestPrimaryForIsDeterministic(t *testing.T) {
	c := New(smallParams(osd.Community().Config()))
	a := c.PrimaryFor("some-object")
	b := c.PrimaryFor("some-object")
	if a != b {
		t.Fatal("primary not stable")
	}
}

func TestOrderedAcksOptionDeliversInOrder(t *testing.T) {
	cfg := osd.AFCeph().Config()
	cfg.OrderedAcks = true
	c := New(smallParams(cfg))
	cl := c.NewClient()
	// Same object => same PG; issue overlapping writes from several procs
	// and verify acks complete.
	done := 0
	for i := 0; i < 4; i++ {
		i := i
		c.K.Go(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			for j := 0; j < 10; j++ {
				cl.WriteObject(p, "ordered-obj", int64(i)*4096, 4096, uint64(i*100+j))
				done++
			}
		})
	}
	c.K.Run(30 * sim.Second)
	if done != 40 {
		t.Fatalf("done = %d, want 40", done)
	}
}

func TestAggregateStatsAccessors(t *testing.T) {
	c := New(smallParams(osd.Community().Config()))
	cl := c.NewClient()
	c.K.Go("io", func(p *sim.Proc) {
		cl.WriteObject(p, "o", 0, 4096, 1)
	})
	c.K.Run(10 * sim.Second)
	if n := totalOSDWrites(c); n != 2 {
		t.Fatalf("total OSD writes = %d, want 2", n)
	}
	if c.AggregateLockStats().Acquires == 0 {
		t.Fatal("no PG lock activity recorded")
	}
	if c.cmap.NumOSDs() != 4 || len(c.Nodes()) != 2 {
		t.Fatal("topology accessors wrong")
	}
}

// TestOSDsRunNoProcess: every OSD thread — the op workers, the journal
// writer, the filestore workers, the completion worker or finisher and
// the batcher — is a callback machine, so a built cluster has no live
// process, and a crash and restart leaves none behind either (the
// restart's replay process finishes).
func TestOSDsRunNoProcess(t *testing.T) {
	c := New(DefaultParams())
	defer c.Close()
	if n := c.K.Live(); n != 0 {
		t.Fatalf("%d processes live after New, want 0", n)
	}
	c.CrashOSD(1)
	c.RestartOSD(1)
	if n := c.K.Live(); n != 0 {
		t.Fatalf("%d processes live after a crash and restart, want 0", n)
	}
}

// TestPlacementViewShared: within one map epoch every member of a PG reads
// the same endpoint slice from the one placement view, with its own slot
// index; a down member's slot is nil; and a slice handed out before
// FailOSD keeps describing its epoch afterwards.
func TestPlacementViewShared(t *testing.T) {
	p := smallParams(osd.AFCeph().Config())
	p.Pool = "rep3"
	c := New(p)
	const pg = 5
	set := c.CrushSet(pg)
	eps, _ := c.acting(pg, set[0])
	for slot, id := range set {
		got, self := c.acting(pg, id)
		if &got[0] != &eps[0] || self != slot {
			t.Fatalf("osd.%d got a slice of its own or slot %d, want the shared slice and slot %d", id, self, slot)
		}
		if got[slot] != c.OSDs()[id].ClusterEndpoint() {
			t.Fatalf("slot %d holds %v, want osd.%d's cluster endpoint", slot, got[slot], id)
		}
	}
	for id := range c.OSDs() {
		if _, self := c.acting(pg, id); !slices.Contains(set, id) && self != -1 {
			t.Fatalf("non-member osd.%d got slot %d, want -1", id, self)
		}
	}
	before := slices.Clone(eps)
	c.FailOSD(set[1])
	after, self := c.acting(pg, set[1])
	if after[1] != nil || self != 1 || after[0] == nil || after[2] == nil {
		t.Fatalf("after FailOSD(%d): slots %v, self %d; want slot 1 nil, the others set, self 1", set[1], after, self)
	}
	if !slices.Equal(eps, before) {
		t.Fatalf("slice handed out before FailOSD changed: %v, was %v", eps, before)
	}
	if up := c.actingSet(pg); !slices.Equal(up, []int{set[0], set[2]}) {
		t.Fatalf("acting set %v, want %v", up, []int{set[0], set[2]})
	}
}
