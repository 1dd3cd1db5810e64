package osd

import (
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
	if o.PGLogHead(7) != 5 {
		t.Fatalf("head = %d", o.PGLogHead(7))
	}
	if o.PGLog(99) != nil {
		t.Fatal("unknown pg returned entries")
	}
	if o.PGLogHead(99) != 0 || o.PGLogApplied(99) != 0 {
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
	o.AdoptPGState(5, 40)
	if o.PGLogHead(5) != 40 || o.PGLogApplied(5) != 40 {
		t.Fatalf("head=%d applied=%d", o.PGLogHead(5), o.PGLogApplied(5))
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
	o.AdoptPGState(5, 10)
	if o.PGLogHead(5) != 42 {
		t.Fatal("backward adopt rewound the log")
	}
	o.AdoptPGState(6, 0) // zero seq no-op
	if o.PGLogHead(6) != 0 {
		t.Fatal("zero adopt created state")
	}
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
