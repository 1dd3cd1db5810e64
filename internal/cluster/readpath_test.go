package cluster

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/crush"
	"repro/internal/osd"
	"repro/internal/sim"
	"repro/internal/store"
)

// TestDamagedReadsPinned drives the damaged-copy read path end to end on a
// replicated and an erasure-coded pool: it writes 24 objects, rots the
// primary copy of some, a non-primary copy of others and both of a few,
// marks one member down, then reads every object in turn. It pins a hash
// of each read's answer (stamp, exists, EIO) and reply time, the OSDs'
// read_repairs, rep_reads and eios counters, and the integrity log (kind,
// time, holder and object of each event), so any change to how a damaged
// copy is detected, replaced, answered or healed shows.
func TestDamagedReadsPinned(t *testing.T) {
	for _, tc := range []struct {
		pool string
		want damagedPin
	}{
		{"rep3", damagedPin{17212923439643055654, 10952979102417766768, 12, 14, 1}},
		{"ec4+2", damagedPin{13658936345263663860, 16694478413833691084, 12, 88, 4}},
	} {
		t.Run(tc.pool, func(t *testing.T) {
			got, detail := damagedReads(tc.pool)
			if got != tc.want {
				t.Fatalf("got %+v, want %+v\n%s", got, tc.want, detail)
			}
		})
	}
}

// damagedPin is what TestDamagedReadsPinned pins of one run: the hashes of
// the reads and of the integrity log, and the OSDs' summed counters.
type damagedPin struct {
	reads, integrity            uint64
	readRepairs, repReads, eios uint64
}

// damagedReads runs the damaged-read workload on pool and returns its pins
// with a per-read and per-event listing for the failure message.
func damagedReads(pool string) (damagedPin, string) {
	p := smallParams(osd.AFCeph().Config())
	p.OSDNodes, p.OSDsPerNode = 3, 2
	p.Pool = pool
	p.OSD.Backend = store.BackendFileStore
	c := New(p)
	defer c.Close()
	const objects = 24
	const down = 5
	cl := c.NewClient()
	var detail string
	readHash := fnv.New64a()
	c.K.Go("io", func(pp *sim.Proc) {
		for i := 0; i < objects; i++ {
			cl.WriteObject(pp, fmt.Sprintf("obj-%d", i), 0, 4096, uint64(100+i))
		}
		for i := 0; i < objects; i++ {
			oid := fmt.Sprintf("obj-%d", i)
			set := c.CrushSet(crush.ObjectToPG(oid, p.PGs))
			if i%4 == 0 || i%4 == 2 {
				c.OSDs()[set[0]].FileStore().CorruptObject(oid)
			}
			if i%4 == 1 || i%4 == 2 {
				c.OSDs()[set[1]].FileStore().CorruptObject(oid)
			}
		}
		c.FailOSD(down)
		for i := 0; i < objects; i++ {
			eios := cl.EIOs()
			stamp, exists := cl.ReadObject(pp, fmt.Sprintf("obj-%d", i), 0, 4096)
			line := fmt.Sprintf("read obj-%d stamp=%d exists=%v eio=%v at=%d\n",
				i, stamp, exists, cl.EIOs() != eios, pp.Now())
			readHash.Write([]byte(line))
			detail += line
		}
	})
	c.K.Run(sim.Forever)
	var got damagedPin
	got.reads = readHash.Sum64()
	evHash := fnv.New64a()
	for _, ev := range c.IntegrityEvents() {
		line := fmt.Sprintf("event kind=%d at=%d osd=%d oid=%s\n", ev.Kind, ev.At, ev.OSD, ev.OID)
		evHash.Write([]byte(line))
		detail += line
	}
	got.integrity = evHash.Sum64()
	for _, o := range c.OSDs() {
		m := o.Metrics()
		got.readRepairs += m.ReadRepairs.Value()
		got.repReads += m.RepReads.Value()
		got.eios += m.EIOs.Value()
	}
	return got, detail
}
