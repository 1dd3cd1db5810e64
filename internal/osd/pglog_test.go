package osd

import (
	"strconv"
	"testing"

	"repro/internal/cpumodel"
	"repro/internal/device"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/sim"
)

// bareOSD builds an OSD without running any workload, for direct PG-log
// manipulation.
func bareOSD() *OSD {
	k := sim.NewKernel()
	net := netsim.New(k, netsim.DefaultParams())
	node := cpumodel.NewNode(k, "n", 8, cpumodel.JEMalloc)
	r := rng.New(1)
	ssd := device.NewSSD(k, "ssd", device.DefaultSSDParams(), r)
	nvram := device.NewNVRAM(k, "nv", device.DefaultNVRAMParams())
	ep := net.NewEndpoint("osd", node, true)
	return NewSplit(k, AFCeph().Config(), node, ep, ep, ssd, nvram, r, &sim.FreeList[Reply]{})
}

func TestPGLogAppendAndRead(t *testing.T) {
	o := bareOSD()
	o.appendPGLog(900, PGLogEntry{Seq: 1, OID: "far"}) // a high PG id first
	for s := uint64(1); s <= 5; s++ {
		o.appendPGLog(7, PGLogEntry{Seq: s, OID: "obj", Stamp: s * 10})
	}
	if far := o.PGLog(900); len(far) != 1 || far[0].OID != "far" {
		t.Fatalf("pg 900 = %+v", far)
	}
	log := o.PGLog(7)
	if len(log) != 5 {
		t.Fatalf("len = %d", len(log))
	}
	if log[4].Seq != 5 || log[4].Stamp != 50 {
		t.Fatalf("tail = %+v", log[4])
	}
	if o.pgLogHead(7) != 5 {
		t.Fatalf("head = %d", o.pgLogHead(7))
	}
	if o.PGLog(99) != nil {
		t.Fatal("unknown pg returned entries")
	}
	if o.pgLogHead(99) != 0 || o.pg(99).appliedSeq != 0 {
		t.Fatal("unknown pg accessors wrong")
	}
}

func TestPGLogTrimKeepsTail(t *testing.T) {
	o := bareOSD()
	const n = 350
	for s := uint64(1); s <= n; s++ {
		o.appendPGLog(1, PGLogEntry{Seq: s, OID: "o"})
	}
	o.markApplied(1, n)
	log := o.PGLog(1)
	if len(log) != pgLogKeep {
		t.Fatalf("retained %d entries, want %d", len(log), pgLogKeep)
	}
	if log[0].Seq != n-pgLogKeep+1 {
		t.Fatalf("oldest retained seq = %d", log[0].Seq)
	}
	if v := o.PGLogViolations(); len(v) != 0 {
		t.Fatalf("violations after trim: %v", v)
	}
}

func TestPGLogNoTrimBelowKeep(t *testing.T) {
	o := bareOSD()
	for s := uint64(1); s <= 50; s++ {
		o.appendPGLog(1, PGLogEntry{Seq: s, OID: "o"})
	}
	o.markApplied(1, 50)
	if len(o.PGLog(1)) != 50 {
		t.Fatalf("trimmed below keep threshold: %d", len(o.PGLog(1)))
	}
}

func TestPGLogViolationGap(t *testing.T) {
	o := bareOSD()
	o.appendPGLog(3, PGLogEntry{Seq: 1})
	o.appendPGLog(3, PGLogEntry{Seq: 4}) // gap
	v := o.PGLogViolations()
	if len(v) == 0 {
		t.Fatal("gap not detected")
	}
	if want := "pg 3: gap or reorder (1 -> 4)"; len(v) != 1 || v[0] != want {
		t.Fatalf("violations = %q, want [%q]", v, want)
	}
}

func TestPGLogViolationAppliedBeyondHead(t *testing.T) {
	o := bareOSD()
	o.appendPGLog(2, PGLogEntry{Seq: 1})
	o.markApplied(2, 9)
	v := o.PGLogViolations()
	if len(v) == 0 {
		t.Fatal("applied-beyond-head not detected")
	}
}

func TestAdoptPGState(t *testing.T) {
	o := bareOSD()
	o.appendPGLog(5, PGLogEntry{Seq: 1})
	o.appendPGLog(5, PGLogEntry{Seq: 2})
	o.adoptPGState(5, 40)
	if o.pgLogHead(5) != 40 || o.pg(5).appliedSeq != 40 {
		t.Fatalf("head=%d applied=%d", o.pgLogHead(5), o.pg(5).appliedSeq)
	}
	if len(o.PGLog(5)) != 0 {
		t.Fatal("stale entries kept")
	}
	// Continuing from the adopted point must be violation-free.
	o.appendPGLog(5, PGLogEntry{Seq: 41})
	o.appendPGLog(5, PGLogEntry{Seq: 42})
	if v := o.PGLogViolations(); len(v) != 0 {
		t.Fatalf("violations after adopt+append: %v", v)
	}
	// Adopting backwards is a no-op.
	o.adoptPGState(5, 10)
	if o.pgLogHead(5) != 42 {
		t.Fatal("backward adopt rewound the log")
	}
	o.adoptPGState(6, 0) // zero seq no-op
	if o.pgLogHead(6) != 0 {
		t.Fatal("zero adopt created state")
	}
}

// logged builds a bare OSD whose log for pg holds seqs from..to, each
// entry naming object "o<seq>", after adopting from-1 as its head.
func logged(pg uint32, from, to uint64) *OSD {
	o := bareOSD()
	o.adoptPGState(pg, from-1)
	for s := from; s <= to; s++ {
		o.appendPGLog(pg, PGLogEntry{Seq: s, OID: "o" + strconv.FormatUint(s, 10)})
	}
	return o
}

// TestPeer: peering returns the objects the last up peer's retained log
// names past the target's applied horizon when that log covers the gap,
// and nil for a backfill or an uncovered gap; the target and its peers
// adopt the highest log head; and the sequence floor, which counts a down
// member's delivered-seq horizon, raises the up members' counters without
// touching their logs.
func TestPeer(t *testing.T) {
	const pg = 3
	newTarget := func() *OSD {
		o := logged(pg, 1, 3)
		o.markApplied(pg, 3)
		return o
	}
	for _, c := range []struct {
		name     string
		backfill bool
		last     *OSD // the last up peer, whose log peering reads
		want     []string
	}{
		{"covered", false, logged(pg, 2, 6), []string{"o4", "o5", "o6"}},
		{"backfill", true, logged(pg, 2, 6), nil},
		{"uncovered", false, logged(pg, 5, 6), nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			target := newTarget()
			first := logged(pg, 6, 8) // covers nothing, and holds the highest head
			missed := Peer(pg, target, []*OSD{first, c.last}, []*OSD{target, first, c.last}, c.backfill)
			if (missed == nil) != (c.want == nil) || len(missed) != len(c.want) {
				t.Fatalf("missed %v, want %v", missed, c.want)
			}
			for _, oid := range c.want {
				if !missed[oid] {
					t.Fatalf("missed %v, want %v", missed, c.want)
				}
			}
			for i, o := range []*OSD{target, first, c.last} {
				if h := o.pgLogHead(pg); h != 8 {
					t.Fatalf("member %d head %d, want the adopted 8", i, h)
				}
			}
		})
	}

	t.Run("floor", func(t *testing.T) {
		target, peer, down := newTarget(), logged(pg, 1, 5), bareOSD()
		peer.markApplied(pg, 5) // its head is applied: adoption keeps its log
		down.pg(pg).seen = 20   // a sub-op delivered to the down member, unprocessed
		Peer(pg, target, []*OSD{peer}, []*OSD{down, target, peer}, false)
		for i, o := range []*OSD{target, peer} {
			st := o.pg(pg)
			if st.seq != 20 {
				t.Fatalf("member %d seq %d, want the floor 20", i, st.seq)
			}
			if h := o.pgLogHead(pg); h != 5 {
				t.Fatalf("member %d head %d, want the adopted 5", i, h)
			}
		}
		if n := len(peer.pg(pg).entries); n != 5 {
			t.Fatalf("peer log %d entries, want its 5 kept", n)
		}
		if st := down.pg(pg); st.seq != 0 || st.seen != 20 {
			t.Fatalf("down member seq %d seen %d, want 0 and 20 untouched", st.seq, st.seen)
		}
	})
}

// TestMakeTxKeys pins the two KV keys of a write's transaction byte for
// byte, checks that they survive the next makeTx (which reuses the key
// scratch), and that building a transaction allocates only the one string
// both keys share.
func TestMakeTxKeys(t *testing.T) {
	o := bareOSD()
	o.logSeq = 41
	a := o.makeTx(7, "rbd_data.vm3.000000000012", 8192, 4096, 5)
	b := o.makeTx(1023, "x", 0, 4096, 6)
	for _, c := range []struct{ got, want string }{
		{a.PGLogKey, "pglog.7.42"},
		{a.OmapOps[0].Key, "omap.rbd_data.vm3.000000000012.info"},
		{b.PGLogKey, "pglog.1023.43"},
		{b.OmapOps[0].Key, "omap.x.info"},
	} {
		if c.got != c.want {
			t.Errorf("key %q, want %q", c.got, c.want)
		}
	}
	if len(a.OmapOps) != 1 || len(b.OmapOps) != 1 {
		t.Fatalf("omap ops %d and %d, want 1 each", len(a.OmapOps), len(b.OmapOps))
	}
	o.txFree.Put(a)
	o.txFree.Put(b)
	if n := testing.AllocsPerRun(100, func() {
		o.txFree.Put(o.makeTx(7, "rbd_data.vm3.000000000012", 0, 4096, 1))
	}); n != 1 {
		t.Fatalf("makeTx allocates %v times, want 1", n)
	}
}
