package workload

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/osd"
	"repro/internal/sim"
)

// TestCalibrationDiagnostics prints the full pipeline breakdown for both
// profiles; used to tune the cost model. Run with -v.
func TestCalibrationDiagnostics(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	run := func(name string, tuning osd.Tuning) {
		p := cluster.ParamsFor(tuning)
		p.OSDNodes = 2
		p.OSDsPerNode = 2
		p.SSDsPerOSD = 2
		p.PGs = 256
		p.OSD.TraceSample = 10
		p.Sustained = true
		c := cluster.New(p)
		f := VMFleet(c, 8, 256<<20, Spec{
			Pattern:   RandWrite,
			BlockSize: 4096,
			IODepth:   8,
			Runtime:   1500 * sim.Millisecond,
			Ramp:      500 * sim.Millisecond,
			Seed:      5,
		})
		res := f.Run(c.K)
		t.Logf("=== %s: %v", name, res)
		o := c.OSDs()[0]
		t.Logf("%s osd0 trace:\n%s", name, o.Traces().Report())
		ls := c.AggregateLockStats()
		t.Logf("%s locks: acquires=%d contended=%d waitTotal=%v holdTotal=%v maxWait=%v",
			name, ls.Acquires, ls.Contended, ls.WaitTime, ls.HoldTime, ls.MaxWait)
		for i, n := range c.Nodes() {
			t.Logf("%s node%d cpu util=%.2f queue=%d", name, i, n.Utilization(), n.QueueLen())
		}
		t.Logf("%s osd0: dispQ=%d pending=%d deferred=%d blocked=%d fsThrottle avail=%d waited=%v throttled=%d",
			name, o.Dispatcher().QueueLen(), o.Dispatcher().PendingLen(),
			o.Dispatcher().Stats().Deferred.Value(), o.Dispatcher().Stats().Blocked.Value(),
			o.FsThrottle().Available(), o.FsThrottle().WaitTime(), o.FsThrottle().Throttled())
		t.Logf("%s osd0: journal free=%d/%d fullStalls=%d logQ=%d logBlock=%vns",
			name, o.Journal().Free(), o.Journal().Size(),
			o.Journal().Stats().FullStalls.Value(), o.Logger().QueueLen(),
			o.Logger().Stats().BlockTime.Value())
		fs := o.FileStore().Stats()
		t.Logf("%s osd0 fs: applies=%d syscalls=%d metaReads=%d kvWAL=%d kvStalls=%d",
			name, fs.Applies.Value(), fs.Syscalls.Value(), fs.MetaReads.Value(),
			o.FileStore().DB().Stats().WALBytes.Value(), o.FileStore().DB().Stats().Stalls.Value())
		ssd := c.SSDs()[0]
		t.Logf("%s ssd0: util=%.2f queue=%d reads=%d writes=%d readLat=%v writeLat=%v",
			name, ssd.Utilization(), ssd.QueueLen(),
			ssd.Stats().Reads.Value(), ssd.Stats().Writes.Value(),
			sim.Time(ssd.Stats().ReadLat.Mean()), sim.Time(ssd.Stats().WriteLat.Mean()))
	}
	run("community", osd.Community())
	run("afceph", osd.AFCeph())
}
