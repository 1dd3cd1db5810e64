package osd

import (
	"testing"

	"repro/internal/cpumodel"
	"repro/internal/netsim"
	"repro/internal/redundancy"
	"repro/internal/sim"
)

// TestECReplyLaunchesLocalShard drives the one gather path on which a
// shard reply, not the op worker, launches the primary's own shard read:
// the acting set lists two up peers ahead of the primary (as when they
// come back up between the client's send and the worker's first pump),
// and both answer unusable. The reply's chain reads the local shard itself,
// with no process started. The reply time is pinned to that of the same
// read with the replies handled on a process per connection, which the
// callback handlers must reproduce exactly; the event count to that read's
// less two per message, the messenger's chain starts, which now run inline.
func TestECReplyLaunchesLocalShard(t *testing.T) {
	h := newHarness(AFCeph().Config())
	h.o.SetPolicy(redundancy.EC{K: 2, M: 2})
	node := cpumodel.NewNode(h.k, "peers", 16, cpumodel.JEMalloc)
	peer := func(name string, ok bool) *netsim.Endpoint {
		ep := h.net.NewEndpoint(name, node, true)
		ep.SetReceiver(func(m *netsim.Message) {
			sr := m.Payload.(*shardRead)
			ep.Send(nil, sr.primary, 200, MsgShardReadReply, &shardReadReply{sr: sr, ok: ok})
		})
		return ep
	}
	set := []ShardTarget{{EP: peer("pa", false)}, {EP: peer("pb", false)}, {Self: true}, {EP: peer("pc", true)}}
	h.o.SetShardPlacer(func(uint32) []ShardTarget { return set })
	h.k.Go("c", func(p *sim.Proc) { h.send(p, OpRead, 1, "obj", 0, 4096, 0) })
	spawned := h.k.Spawned()
	h.k.Run(5 * sim.Second)
	rep := h.acks[1]
	if rep == nil || rep.EIO || rep.Exists {
		t.Fatalf("read reply = %+v, want an answer for an absent extent", rep)
	}
	if n := h.k.Spawned() - spawned; n != 0 {
		t.Fatalf("spawned %d procs, want none", n)
	}
	if h.ackAt[1] != 639596 || h.k.Dispatched() != 62 {
		t.Fatalf("reply at %d after %d events, want 639596 and 62", h.ackAt[1], h.k.Dispatched())
	}
}
