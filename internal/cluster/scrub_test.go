package cluster

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/crush"
	"repro/internal/filestore"
	"repro/internal/osd"
	"repro/internal/sim"
)

// runScrubWorkload drives a randomized write workload and waits for
// filestore applies to settle.
func runScrubWorkload(t *testing.T, c *Cluster, clients, ops int) {
	t.Helper()
	for i := 0; i < clients; i++ {
		i := i
		cl := c.NewClient()
		bd := cl.OpenDevice(fmt.Sprintf("scrub%d", i), 64<<20)
		c.K.Go(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			for j := 0; j < ops; j++ {
				off := int64((i*131 + j*17) % (64 << 20 / 4096) * 4096)
				bd.WriteAt(p, off, 4096, uint64(j+1))
			}
			p.Sleep(2 * sim.Second) // settle applies
		})
	}
	c.K.Run(sim.Forever)
}

func TestScrubCleanAfterWorkload(t *testing.T) {
	for name, prof := range profiles() {
		t.Run(name, func(t *testing.T) {
			c := New(smallParams(prof))
			runScrubWorkload(t, c, 4, 50)
			if inc := c.ScrubAll(); len(inc) != 0 {
				t.Fatalf("scrub found %d inconsistencies, first: %+v", len(inc), inc[0])
			}
		})
	}
}

func TestScrubDetectsTamperedReplica(t *testing.T) {
	c := New(smallParams(osd.AFCeph().Config()))
	runScrubWorkload(t, c, 2, 30)
	// Tamper: apply an extra transaction directly to one OSD's filestore,
	// bumping an object version out of sync with its peers.
	var victimOID string
	var victim *osd.OSD
	for _, o := range c.OSDs() {
		if names := o.FileStore().ObjectNames(); len(names) > 0 {
			victimOID = names[0]
			victim = o
			break
		}
	}
	if victim == nil {
		t.Fatal("no objects stored")
	}
	c.K.Go("tamper", func(p *sim.Proc) {
		victim.FileStore().Apply(p, &filestore.Transaction{OID: victimOID, Off: 0, Len: 4096})
	})
	c.K.Run(sim.Forever)
	inc := c.ScrubAll()
	if len(inc) == 0 {
		t.Fatal("scrub missed the tampered replica")
	}
	found := false
	for _, i := range inc {
		if i.OID == victimOID {
			found = true
		}
	}
	if !found {
		t.Fatalf("scrub blamed the wrong object: %+v", inc)
	}
}

func TestScrubDetectsStrayCopy(t *testing.T) {
	c := New(smallParams(osd.AFCeph().Config()))
	runScrubWorkload(t, c, 1, 10)
	// Plant a copy of a real object on an OSD outside its CRUSH set.
	var oid string
	for _, o := range c.OSDs() {
		if names := o.FileStore().ObjectNames(); len(names) > 0 {
			oid = names[0]
			break
		}
	}
	set := map[int]bool{}
	pg := ObjectToPGForTest(oid, c)
	for _, id := range c.CrushSet(pg) {
		set[id] = true
	}
	var stray *osd.OSD
	for id, o := range c.OSDs() {
		if !set[id] {
			stray = o
			break
		}
	}
	if stray == nil {
		t.Skip("no OSD outside the set in this tiny map")
	}
	c.K.Go("plant", func(p *sim.Proc) {
		stray.FileStore().Apply(p, &filestore.Transaction{OID: oid, Off: 0, Len: 4096})
	})
	c.K.Run(sim.Forever)
	inc := c.ScrubAll()
	foundStray := false
	for _, i := range inc {
		if i.OID == oid && i.Detail != "" {
			foundStray = true
		}
	}
	if !foundStray {
		t.Fatal("scrub missed the stray copy")
	}
}

func TestPGLogsOrderedAfterWorkload(t *testing.T) {
	for name, prof := range profiles() {
		t.Run(name, func(t *testing.T) {
			c := New(smallParams(prof))
			runScrubWorkload(t, c, 4, 60)
			if v := c.ScrubPGLogs(); len(v) != 0 {
				t.Fatalf("PG log violations: %v", v)
			}
			// The logs must actually contain entries and trimmed state.
			entries := 0
			for _, o := range c.OSDs() {
				for pg := uint32(0); pg < c.Params.PGs; pg++ {
					entries += len(o.PGLog(pg))
				}
			}
			if entries == 0 {
				t.Fatal("no PG log entries recorded")
			}
		})
	}
}

func TestPGLogTrimBoundsMemory(t *testing.T) {
	// Hammer one object (one PG) and confirm the log stays bounded by the
	// retention window.
	c := New(smallParams(osd.AFCeph().Config()))
	cl := c.NewClient()
	c.K.Go("w", func(p *sim.Proc) {
		for j := 0; j < 500; j++ {
			cl.WriteObject(p, "hot-object", 0, 4096, uint64(j))
		}
		p.Sleep(2 * sim.Second)
	})
	c.K.Run(sim.Forever)
	for _, o := range c.OSDs() {
		for pg := uint32(0); pg < c.Params.PGs; pg++ {
			if n := len(o.PGLog(pg)); n > 150 {
				t.Fatalf("pg %d log has %d entries; trim not working", pg, n)
			}
		}
	}
	if v := c.ScrubPGLogs(); len(v) != 0 {
		t.Fatalf("violations after trim: %v", v)
	}
}

// ObjectToPGForTest exposes placement for test assertions.
func ObjectToPGForTest(oid string, c *Cluster) uint32 {
	return crush.ObjectToPG(oid, c.Params.PGs)
}

// TestScrubAllAllocsFlatInObjects: a clean version scrub allocates the
// same at 256 and at 1024 objects. ObjectNames fills one slice and the
// CRUSH sets are computed once per PG, so nothing is allocated per object.
// (The deep scrub, VerifyData on, exports each object and is not covered.)
func TestScrubAllAllocsFlatInObjects(t *testing.T) {
	allocs := func(objects int) float64 {
		p := smallParams(osd.AFCeph().Config())
		p.OSD.FStore.VerifyData = false
		c := New(p)
		defer c.Close()
		cl := c.NewClient()
		c.K.Go("fill", func(p *sim.Proc) {
			for i := 0; i < objects; i++ {
				cl.WriteObject(p, fmt.Sprintf("obj%d", i), 0, 4096, 1)
			}
			p.Sleep(2 * sim.Second)
		})
		c.K.Run(sim.Forever)
		names := c.ObjectNames()
		if len(names) != objects || !slices.IsSorted(names) {
			t.Fatalf("ObjectNames: %d names (sorted %v), want %d sorted",
				len(names), slices.IsSorted(names), objects)
		}
		return testing.AllocsPerRun(5, func() {
			if inc := c.ScrubAll(); len(inc) != 0 {
				t.Fatalf("scrub found %d inconsistencies, first: %+v", len(inc), inc[0])
			}
		})
	}
	small, large := allocs(256), allocs(1024)
	if large > small {
		t.Fatalf("ScrubAll allocates %v times at 256 objects and %v at 1024", small, large)
	}
}
