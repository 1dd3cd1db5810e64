package cluster

import (
	"fmt"
	"testing"

	"repro/internal/osd"
	"repro/internal/sim"
)

// fingerprint runs a fixed workload and collapses every observable metric
// into one string.
func fingerprint(seed uint64) string {
	p := smallParams(osd.AFCeph().Config())
	p.Seed = seed
	c := New(p)
	cl := c.NewClient()
	bd := cl.OpenDevice("img", 64<<20)
	var lastStamp uint64
	c.K.Go("io", func(pp *sim.Proc) {
		for j := 0; j < 60; j++ {
			off := int64(j%16) * ObjectSize
			bd.WriteAt(pp, off, 4096, uint64(j))
		}
		lastStamp, _ = bd.ReadAt(pp, 0, 4096)
	})
	c.K.Run(sim.Forever)
	s := fmt.Sprintf("t=%d stamp=%d writes=%d", c.K.Now(), lastStamp, totalOSDWrites(c))
	ls := c.AggregateLockStats()
	s += fmt.Sprintf(" lock=%d/%d/%d", ls.Acquires, ls.Contended, ls.WaitTime)
	for _, o := range c.OSDs() {
		s += fmt.Sprintf(" osd[%d,%d,%d]", o.Metrics().WriteOps.Value(),
			o.Metrics().RepOps.Value(), o.FileStore().Stats().Syscalls.Value())
	}
	return s
}

// TestClusterDeterminism: identical seeds produce bit-identical behaviour —
// the property every golden comparison in EXPERIMENTS.md rests on.
func TestClusterDeterminism(t *testing.T) {
	a := fingerprint(7)
	b := fingerprint(7)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	c := fingerprint(8)
	if a == c {
		t.Fatal("different seeds produced identical fingerprints (suspicious)")
	}
}

// totalOSDWrites sums write ops over all OSDs (primary + replica).
func totalOSDWrites(c *Cluster) uint64 {
	var n uint64
	for _, o := range c.osds {
		n += o.Metrics().WriteOps.Value() + o.Metrics().RepOps.Value()
	}
	return n
}
