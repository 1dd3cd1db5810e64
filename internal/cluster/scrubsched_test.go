package cluster

import (
	"runtime"
	"testing"

	"repro/internal/crush"
	"repro/internal/osd"
	"repro/internal/sim"
)

// Background scrub scheduler tests: determinism of the scrub order, the
// bandwidth-budget property of the deep-read throttle, silence on a clean
// cluster under load, and the online detect-and-repair loop. The read-
// repair and EIO legs of the read path are covered here too since they
// share the integrity machinery.

// scrubWindowRun drives a cluster with the scheduler on: a client writes
// under the scrub, the scheduler runs for `window`, then everything drains.
func scrubWindowRun(p Params, window sim.Time, ops int) (*Cluster, *Client) {
	c := New(p)
	cl := c.NewClient()
	bd := cl.OpenDevice("img", 64<<20)
	c.K.Go("io", func(pp *sim.Proc) {
		for j := 0; j < ops; j++ {
			obj := int64(j) % (bd.Img.Size / ObjectSize)
			bd.WriteAt(pp, obj*ObjectSize+int64(j/16)*4096, 4096, 1+uint64(j))
			pp.Sleep(2 * sim.Millisecond)
		}
	})
	c.K.Go("stop", func(pp *sim.Proc) {
		pp.Sleep(window)
		c.StopScrub()
	})
	c.K.Run(sim.Forever)
	return c, cl
}

func scrubParams() Params {
	p := smallParams(osd.AFCeph().Config())
	p.Scrub = ScrubParams{
		Interval:         20 * sim.Millisecond,
		BytesPerSec:      256 << 20,
		MaxConcurrentPGs: 2,
		AutoRepair:       true,
		SettleDelay:      5 * sim.Millisecond,
	}
	return p
}

// TestScrubOrderDeterminism: the scrub visit order (object identity mixed
// with visit time) must be bit-identical across runs, including under
// GOMAXPROCS=1 — the scheduler introduces no scheduling nondeterminism.
func TestScrubOrderDeterminism(t *testing.T) {
	run := func() (uint64, uint64, uint64) {
		c, _ := scrubWindowRun(scrubParams(), 600*sim.Millisecond, 100)
		return c.ScrubOrderHash(), c.ScrubStats().ObjectsScrubbed.Value(), c.ScrubStats().Rounds.Value()
	}
	h1, objs1, rounds1 := run()
	h2, objs2, _ := run()
	prev := runtime.GOMAXPROCS(1)
	h3, _, _ := run()
	runtime.GOMAXPROCS(prev)
	if h1 == 0 || objs1 == 0 || rounds1 == 0 {
		t.Fatalf("scrub never ran: hash=%#x objects=%d rounds=%d", h1, objs1, rounds1)
	}
	if h1 != h2 || objs1 != objs2 {
		t.Errorf("same seed diverged: %#x/%d vs %#x/%d", h1, objs1, h2, objs2)
	}
	if h1 != h3 {
		t.Errorf("GOMAXPROCS=1 diverged: %#x vs %#x", h1, h3)
	}
}

// TestScrubNoFalsePositives: a clean cluster under concurrent client load
// must scrub completely silently — in-flight writes legitimately leave
// replicas momentarily divergent, and the settle-recheck must absorb every
// such case.
func TestScrubNoFalsePositives(t *testing.T) {
	c, _ := scrubWindowRun(scrubParams(), 800*sim.Millisecond, 200)
	st := c.ScrubStats()
	if st.ObjectsScrubbed.Value() == 0 {
		t.Fatal("scrub never visited an object; test is vacuous")
	}
	if f := st.Findings.Value(); f != 0 {
		t.Errorf("clean cluster produced %d scrub findings", f)
	}
	if r := st.Repairs.Value(); r != 0 {
		t.Errorf("clean cluster triggered %d auto-repairs", r)
	}
	if n := len(c.IntegrityEvents()); n != 0 {
		t.Errorf("clean cluster logged %d integrity events: %+v", n, c.IntegrityEvents()[0])
	}
}

// TestScrubThrottleBudget: deep-scrub reads must respect the bytes/sec
// budget in every window — for any two trace points, the bytes issued
// between them may not exceed budget x elapsed plus one leading grant.
func TestScrubThrottleBudget(t *testing.T) {
	p := scrubParams()
	p.Scrub.Interval = 5 * sim.Millisecond
	p.Scrub.BytesPerSec = 1 << 20
	p.Scrub.MaxConcurrentPGs = 4
	c := New(p)
	type ev struct {
		at    sim.Time
		bytes int64
	}
	var trace []ev
	c.SetScrubReadTrace(func(at sim.Time, bytes int64) {
		trace = append(trace, ev{at, bytes})
	})
	cl := c.NewClient()
	c.K.Go("io", func(pp *sim.Proc) {
		for j := 0; j < 24; j++ {
			cl.WriteObject(pp, "obj-"+string(rune('a'+j)), 0, 4096, 1+uint64(j))
		}
	})
	c.K.Go("stop", func(pp *sim.Proc) {
		pp.Sleep(500 * sim.Millisecond)
		c.StopScrub()
	})
	c.K.Run(sim.Forever)
	if len(trace) < 10 {
		t.Fatalf("only %d throttled reads traced; test is vacuous", len(trace))
	}
	budget := p.Scrub.BytesPerSec
	for i := range trace {
		sum := int64(0)
		for j := i; j < len(trace); j++ {
			sum += trace[j].bytes
			// The read at the window's left edge is granted at its start,
			// so it rides on top of the windowed allowance.
			allowed := trace[i].bytes +
				int64(trace[j].at-trace[i].at)*budget/int64(sim.Second)
			if sum > allowed {
				t.Fatalf("throttle burst: %d bytes in [%v,%v], budget allows %d",
					sum, trace[i].at, trace[j].at, allowed)
			}
		}
	}
}

// TestScrubDetectsAndRepairsRot: rot injected on a replica mid-workload is
// found by a deep scrub and healed by auto-repair while clients keep
// writing; the integrity log yields a positive time-to-detect and
// time-to-repair.
func TestScrubDetectsAndRepairsRot(t *testing.T) {
	p := scrubParams()
	c := New(p)
	cl := c.NewClient()
	bd := cl.OpenDevice("img", 64<<20)
	oid := "rbd.img.0"
	pg := crush.ObjectToPG(oid, p.PGs)
	set := c.Map().PGToOSDs(pg, c.PoolWidth())
	victim := set[len(set)-1]
	var injectedAt sim.Time
	c.K.Go("io", func(pp *sim.Proc) {
		for j := 0; j < 100; j++ {
			bd.WriteAt(pp, int64(j%16)*ObjectSize, 4096, 1+uint64(j))
			pp.Sleep(2 * sim.Millisecond)
		}
	})
	c.K.Go("rot", func(pp *sim.Proc) {
		pp.Sleep(60 * sim.Millisecond)
		if !c.OSDs()[victim].Store().CorruptObject(oid) {
			t.Errorf("osd.%d holds no copy of %s", victim, oid)
		}
		injectedAt = pp.Now()
	})
	c.K.Go("stop", func(pp *sim.Proc) {
		pp.Sleep(900 * sim.Millisecond)
		c.StopScrub()
	})
	c.K.Run(sim.Forever)

	st := c.ScrubStats()
	if st.Findings.Value() == 0 {
		t.Fatal("deep scrub never flagged the injected rot")
	}
	if st.Repairs.Value() == 0 {
		t.Fatal("auto-repair healed nothing")
	}
	if c.OSDs()[victim].Store().ObjectDamaged(oid) {
		t.Fatal("damaged copy survived the scrub window")
	}
	var detect, repair sim.Time
	for _, ev := range c.IntegrityEvents() {
		if ev.OID != oid || ev.At < injectedAt {
			continue
		}
		if ev.Kind == IntegrityFinding && detect == 0 {
			detect = ev.At
		}
		if ev.Kind == IntegrityRepaired && repair == 0 {
			repair = ev.At
		}
	}
	if detect == 0 || repair == 0 || repair < detect {
		t.Fatalf("integrity log incomplete: detect=%v repair=%v inject=%v", detect, repair, injectedAt)
	}
	t.Logf("time-to-detect=%v time-to-repair=%v", detect-injectedAt, repair-injectedAt)
}

// TestReadRepairServesFromReplica: a read that lands on a damaged primary
// extent is answered with the replica's healthy data — the client never
// sees the rot — and the bad copy is overwritten in the background.
func TestReadRepairServesFromReplica(t *testing.T) {
	c := New(smallParams(osd.AFCeph().Config()))
	cl := c.NewClient()
	oid := "obj-a"
	pg := crush.ObjectToPG(oid, c.Params.PGs)
	set := c.Map().PGToOSDs(pg, c.PoolWidth())
	primary := set[0]
	var got uint64
	var exists bool
	c.K.Go("io", func(pp *sim.Proc) {
		cl.WriteObject(pp, oid, 0, 4096, 42)
		if !c.OSDs()[primary].Store().CorruptObject(oid) {
			t.Errorf("primary osd.%d holds no copy of %s", primary, oid)
		}
		got, exists = cl.ReadObject(pp, oid, 0, 4096)
	})
	c.K.Run(sim.Forever)
	if !exists || got != 42 {
		t.Fatalf("read through damaged primary: stamp=%d exists=%v, want 42/true", got, exists)
	}
	if n := c.OSDs()[primary].Metrics().ReadRepairs.Value(); n != 1 {
		t.Fatalf("read repairs on primary = %d, want 1", n)
	}
	// The async overwrite has drained with the kernel: the primary's copy
	// must be healthy again and carry the real data.
	if c.OSDs()[primary].Store().ObjectDamaged(oid) {
		t.Fatal("primary copy still damaged after read-repair")
	}
	st, ok := c.OSDs()[primary].Store().ExportObject(oid)
	if !ok || st.Stamps[0] != 42 {
		t.Fatalf("healed primary stamp = %d, want 42", st.Stamps[0])
	}
	var sawRR, sawHeal bool
	for _, ev := range c.IntegrityEvents() {
		if ev.OID != oid {
			continue
		}
		sawRR = sawRR || ev.Kind == IntegrityReadRepair
		sawHeal = sawHeal || ev.Kind == IntegrityRepaired
	}
	if !sawRR || !sawHeal {
		t.Fatalf("integrity log missed the repair: rr=%v heal=%v", sawRR, sawHeal)
	}
}

// TestReadEIOWhenNoHealthyCopy: with every copy of the extent damaged the
// read must fail cleanly — EIO surfaced as a missing read, never scrambled
// data returned as if valid.
func TestReadEIOWhenNoHealthyCopy(t *testing.T) {
	c := New(smallParams(osd.AFCeph().Config()))
	cl := c.NewClient()
	oid := "obj-a"
	pg := crush.ObjectToPG(oid, c.Params.PGs)
	set := c.Map().PGToOSDs(pg, c.PoolWidth())
	var got uint64
	var exists bool
	c.K.Go("io", func(pp *sim.Proc) {
		cl.WriteObject(pp, oid, 0, 4096, 42)
		for _, id := range set {
			if !c.OSDs()[id].Store().CorruptObject(oid) {
				t.Errorf("osd.%d holds no copy of %s", id, oid)
			}
		}
		got, exists = cl.ReadObject(pp, oid, 0, 4096)
	})
	c.K.Run(sim.Forever)
	if exists || got != 0 {
		t.Fatalf("EIO read returned stamp=%d exists=%v, want 0/false", got, exists)
	}
	if n := cl.EIOs(); n != 1 {
		t.Fatalf("client EIOs = %d, want 1", n)
	}
	if n := c.OSDs()[set[0]].Metrics().EIOs.Value(); n != 1 {
		t.Fatalf("primary EIO counter = %d, want 1", n)
	}
	sawEIO := false
	for _, ev := range c.IntegrityEvents() {
		sawEIO = sawEIO || (ev.OID == oid && ev.Kind == IntegrityEIO)
	}
	if !sawEIO {
		t.Fatal("integrity log missed the EIO")
	}
}
