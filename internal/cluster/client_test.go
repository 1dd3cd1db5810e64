package cluster

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/crush"
	"repro/internal/netsim"
	"repro/internal/osd"
	"repro/internal/sim"
)

// pooled takes n records off a free list: the pooled ones, most recently
// put first, then fresh ones.
func pooled[T any](l *sim.FreeList[T], n int) []*T {
	var out []*T
	for ; n > 0; n-- {
		out = append(out, l.Get())
	}
	return out
}

// TestTimeoutAttemptsPooled: with ClientOpTimeout set, sequential ops on
// one client that all complete reuse one op record and one pending record
// and retry nothing. Each attempt's timer is cancelled, so the run
// dispatches exactly the events of the same run without timeouts.
func TestTimeoutAttemptsPooled(t *testing.T) {
	run := func(timeout sim.Time) (events, retries uint64, bad, opRecs, pendRecs int) {
		p := smallParams(osd.AFCeph().Config())
		p.ClientOpTimeout = timeout
		c := New(p)
		defer c.Close()
		cl := c.NewClient()
		bd := cl.OpenDevice("img", 64<<20)
		ops, pends := map[*osd.ClientOp]bool{}, map[*pendingOp]bool{}
		cl.ep.SetReceiver(func(m *netsim.Message) {
			op := m.Payload.(*osd.Reply).Op
			ops[op], pends[cl.pending[op.ID]] = true, true
			cl.handleReply(m)
		})
		c.K.Go("io", func(pp *sim.Proc) {
			for j := 0; j < 40; j++ {
				off := batchOffset(bd, 0, j)
				bd.WriteAt(pp, off, 4096, 1+uint64(j))
				if st, ok := bd.ReadAt(pp, off, 4096); !ok || st != 1+uint64(j) {
					bad++
				}
			}
		})
		c.K.Run(10 * sim.Second)
		return c.K.Dispatched(), cl.Retries(), bad, len(ops), len(pends)
	}
	events, retries, bad, opRecs, pendRecs := run(50 * sim.Millisecond)
	if bad != 0 || retries != 0 {
		t.Fatalf("%d bad reads, %d retries; want 0, 0", bad, retries)
	}
	if opRecs != 1 || pendRecs != 1 {
		t.Fatalf("%d op and %d pending records served 80 ops, want 1 each", opRecs, pendRecs)
	}
	if want, _, _, _, _ := run(0); events != want {
		t.Fatalf("%d events with timeouts, %d without: a completed attempt's timer ran", events, want)
	}
}

// TestLateReplyDropped: a read whose primary's disk turns slow outlives
// its timeout and is resent. The first attempt's reply arrives while the
// second is pending, on the pending record the first one released: it is
// dropped and recycled, and the second attempt completes on its own
// reply. The dropped attempt's op is never recycled, since the OSD held it
// until that late reply.
func TestLateReplyDropped(t *testing.T) {
	p := smallParams(osd.AFCeph().Config())
	p.ClientOpTimeout = 50 * sim.Millisecond
	c := New(p)
	defer c.Close()
	cl := c.NewClient()
	const oid = "obj-late"
	primary := c.CrushSet(crush.ObjectToPG(oid, p.PGs))[0]
	type arrival struct {
		rep  *osd.Reply
		op   *osd.ClientOp
		id   uint64
		live bool // its attempt was pending when it arrived
		busy int  // attempts pending when it arrived
	}
	var got []arrival
	cl.ep.SetReceiver(func(m *netsim.Message) {
		rep := m.Payload.(*osd.Reply)
		_, live := cl.pending[rep.Op.ID]
		got = append(got, arrival{rep, rep.Op, rep.Op.ID, live, len(cl.pending)})
		cl.handleReply(m)
	})
	var stamp uint64
	var exists bool
	c.K.Go("io", func(pp *sim.Proc) {
		cl.WriteObject(pp, oid, 0, 4096, 9)
		pp.Sleep(100 * sim.Millisecond)
		c.DiskFaults(primary).SetSlow(900)
		stamp, exists = cl.ReadObject(pp, oid, 0, 4096)
	})
	c.K.Go("heal", func(pp *sim.Proc) {
		pp.Sleep(160 * sim.Millisecond) // after the first attempt timed out
		c.DiskFaults(primary).Clear()
	})
	c.K.Run(sim.Forever)
	if !exists || stamp != 9 {
		t.Fatalf("read = %d, %v; want 9, true", stamp, exists)
	}
	if cl.Retries() != 1 || len(got) != 3 {
		t.Fatalf("%d retries, %d replies; want 1 retry and 3 replies (write, late, resent read)", cl.Retries(), len(got))
	}
	write, late, read := got[0], got[1], got[2]
	if !write.live || late.live || late.busy != 1 || !read.live || late.id >= read.id {
		t.Fatalf("arrivals %+v, want the write, the first read attempt's late reply, then the resent read's", got)
	}
	if *late.rep != (osd.Reply{}) || !slices.Contains(pooled(&c.replies, 3), late.rep) {
		t.Fatalf("late reply %+v not zeroed and pooled", late.rep)
	}
	opsPooled := pooled(&cl.opFree, 3)
	if late.op == read.op || late.op.ID != late.id || slices.Contains(opsPooled, late.op) {
		t.Fatal("the timed-out attempt's op was recycled")
	}
	if opsPooled[0] != read.op {
		t.Fatal("the resent read's op was not recycled")
	}
}

// TestSteadyStateAllocsWithTimeouts: with op timeouts and heartbeats on,
// a warmed-up run of reads allocates under 0.1 times per client op: an
// attempt, its timeout and the heartbeats allocate nothing. (A write
// allocates its PG log key in the OSD, whatever the client does.)
func TestSteadyStateAllocsWithTimeouts(t *testing.T) {
	p := smallParams(osd.AFCeph().Config())
	p.ClientOpTimeout = 50 * sim.Millisecond
	p.HeartbeatInterval = 5 * sim.Millisecond
	c := New(p)
	defer c.Close()
	const clients, extents = 4, 16
	var ops int
	var bds []*BlockDevice
	for i := 0; i < clients; i++ {
		bds = append(bds, c.NewClient().OpenDevice("img"+string(rune('a'+i)), 64<<20))
	}
	for i, bd := range bds {
		c.K.Go("io", func(pp *sim.Proc) {
			for j := 0; j < extents; j++ {
				bd.WriteAt(pp, batchOffset(bd, i, j), 4096, 1+uint64(j))
			}
			for j := 0; ; j++ {
				bd.ReadAt(pp, batchOffset(bd, i, j%extents), 4096)
				ops++
			}
		})
	}
	c.K.Run(200 * sim.Millisecond) // warm-up: every record pool and map grows
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	from := ops
	c.K.Run(2 * sim.Second)
	runtime.ReadMemStats(&after)
	n := ops - from
	perOp := float64(after.Mallocs-before.Mallocs) / float64(n)
	if n < 1000 || perOp >= 0.1 {
		t.Fatalf("%d mallocs over %d ops (%.3f per op), want under 0.1 per op over at least 1000",
			after.Mallocs-before.Mallocs, n, perOp)
	}
	t.Logf("%d mallocs over %d ops (%.4f per op)", after.Mallocs-before.Mallocs, n, perOp)
}
