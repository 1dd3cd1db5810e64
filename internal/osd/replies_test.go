package osd

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/redundancy"
	"repro/internal/sim"
)

// TestWorkerRepliesPinned pins the replies an op worker sends itself: the
// write ack, a clean replicated read, the EIO of a replicated read whose
// only copy is damaged, the EIO of an EC read with only the primary up, a
// k = 1 EC read the primary serves from its own shard, and a shard
// holder's answer to an EC primary's gather fetch. Each runs on both logging modes:
// the AFCeph profile logs asynchronously, the community one waits for its
// logger thread. The reply times and flags are those of the worker paths
// before they were built on callback chains, which must reproduce them
// exactly. The event counts are those paths' less two per message: the
// messenger's send and receive chains now start inline.
func TestWorkerRepliesPinned(t *testing.T) {
	type pin struct {
		ackAt, readAt sim.Time
		eio, exists   bool
		dispatched    uint64
	}
	cases := []struct {
		name   string
		setup  func(h *harness)
		damage bool // corrupt the object between write and read
		read   func(h *harness, p *sim.Proc)
		want   map[string]pin // by profile
	}{
		{"rep-clean", func(h *harness) {}, false, nil, map[string]pin{
			"afceph":    {351532, 50489467, false, true, 77},
			"community": {1510382, 51531578, false, true, 94},
		}},
		{"rep-damaged-no-replicas", func(h *harness) {}, true, nil, map[string]pin{
			"afceph":    {351532, 50482889, true, false, 80},
			"community": {1510382, 51550760, true, false, 98},
		}},
		{"ec-primary-only", func(h *harness) {
			h.o.SetPolicy(redundancy.EC{K: 2, M: 1})
			set := []*netsim.Endpoint{h.o.ClusterEndpoint(), nil, nil}
			h.o.SetActingSet(fixedSet(set, 0))
		}, false, nil, map[string]pin{
			"afceph":    {352578, 50478249, true, false, 78},
			"community": {1511428, 51520360, true, false, 95},
		}},
		// The peer joins the acting set after the write, so the write stays
		// unreplicated and the read has a member it need not ask.
		{"ec-served-alone", func(h *harness) {
			h.o.SetPolicy(redundancy.EC{K: 1, M: 1})
		}, false, func(h *harness, p *sim.Proc) {
			peer := h.net.NewEndpoint("peer", h.o.node, true)
			set := []*netsim.Endpoint{h.o.ClusterEndpoint(), peer}
			h.o.SetActingSet(fixedSet(set, 0))
			h.send(p, OpRead, 2, "obj", 0, 4096, 0)
		}, map[string]pin{
			"afceph":    {355439, 50489467, false, true, 78},
			"community": {1514289, 51531578, false, true, 95},
		}},
		// The harness OSD holds shard 1 of a K=2 stripe; a peer primary
		// fetches it. Its answer is pinned as a reply: EIO for an unusable
		// shard.
		{"ec-shard-holder", func(h *harness) {
			h.o.SetPolicy(redundancy.EC{K: 2, M: 1})
			h.prim = h.net.NewEndpoint("prim", h.o.node, true)
			h.prim.SetReceiver(func(m *netsim.Message) {
				srr := m.Payload.(*shardReadReply)
				h.acks[2] = &Reply{Stamp: srr.stamp, Exists: srr.exists, EIO: !srr.ok}
				h.ackAt[2] = h.k.Now()
			})
		}, false, func(h *harness, p *sim.Proc) {
			op := &ClientOp{Kind: OpRead, OID: "obj", PG: 1, Len: 4096, ID: 2}
			sr := &shardRead{op: op, primary: h.prim, idx: 1}
			h.prim.Send(p, h.o.ClusterEndpoint(), 200, MsgShardRead, sr)
		}, map[string]pin{
			"afceph":    {352578, 50474815, false, true, 75},
			"community": {1511428, 51491166, false, true, 91},
		}},
	}
	profiles := []struct {
		name string
		cfg  Config
	}{
		{"afceph", AFCeph().Config()},
		{"community", Community().Config()},
	}
	for _, tc := range cases {
		for _, pr := range profiles {
			t.Run(tc.name+"/"+pr.name, func(t *testing.T) {
				h := newHarness(pr.cfg)
				tc.setup(h)
				h.k.Go("c", func(p *sim.Proc) {
					h.send(p, OpWrite, 1, "obj", 0, 4096, 7)
					p.Sleep(50 * sim.Millisecond)
					if tc.damage && !h.o.FileStore().CorruptObject("obj") {
						t.Error("no object to damage")
					}
					if tc.read != nil {
						tc.read(h, p)
					} else {
						h.send(p, OpRead, 2, "obj", 0, 4096, 0)
					}
				})
				h.k.Run(5 * sim.Second)
				rep := h.acks[2]
				if h.acks[1] == nil || rep == nil {
					t.Fatalf("write reply %v, read reply %v", h.acks[1], rep)
				}
				got := pin{h.ackAt[1], h.ackAt[2], rep.EIO, rep.Exists, h.k.Dispatched()}
				if want := tc.want[pr.name]; got != want {
					t.Fatalf("got %+v, want %+v", got, want)
				}
				if !rep.EIO && rep.Stamp != 7 {
					t.Fatalf("read stamp %d, want 7", rep.Stamp)
				}
			})
		}
	}
	t.Run("rep-crash-mid-read", crashMidReadPinned)
}

// crashMidReadPinned crashes the OSD while a replicated read's
// device I/O is in flight, with a second read of the same PG queued behind
// it. Neither read is answered, and the worker that served the first goes
// on to the next item (which the dead generation drops), so the dispatcher
// processes all three items. The event counts are pinned from the worker
// path before it was built on a callback chain, less the messenger's chain
// starts, which now run inline.
func crashMidReadPinned(t *testing.T) {
	cases := []struct {
		name       string
		cfg        Config
		crashAt    sim.Time // inside the first read's device I/O
		dispatched uint64
	}{
		{"afceph", AFCeph().Config(), 50350 * sim.Microsecond, 77},
		{"community", Community().Config(), 51380 * sim.Microsecond, 94},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(tc.cfg)
			h.k.Go("c", func(p *sim.Proc) {
				h.send(p, OpWrite, 1, "obj", 0, 4096, 7)
				p.Sleep(50 * sim.Millisecond)
				h.send(p, OpRead, 2, "obj", 0, 4096, 0)
				h.send(p, OpRead, 3, "obj", 0, 4096, 0)
			})
			fs := h.o.FileStore()
			var devAtCrash uint64
			h.k.Go("crash", func(p *sim.Proc) {
				p.Sleep(tc.crashAt)
				if n := fs.Stats().Reads.Value(); n != 1 {
					t.Errorf("%d filestore reads begun at the crash, want 1", n)
				}
				devAtCrash = fs.Device().Stats().Reads.Value()
				h.o.Crash()
			})
			h.k.Run(5 * sim.Second)
			if h.acks[1] == nil || h.acks[2] != nil || h.acks[3] != nil {
				t.Fatalf("replies: write %v, reads %v %v; want the write's only", h.acks[1], h.acks[2], h.acks[3])
			}
			if n := fs.Device().Stats().Reads.Value(); n != devAtCrash+1 {
				t.Fatalf("device reads %d after the crash, want the one in flight (%d)", n, devAtCrash+1)
			}
			if n := h.o.OpWQ().Stats().Processed.Value(); n != 3 {
				t.Fatalf("dispatcher processed %d items, want 3", n)
			}
			if d := h.k.Dispatched(); d != tc.dispatched {
				t.Fatalf("dispatched %d, want %d", d, tc.dispatched)
			}
		})
	}
}
