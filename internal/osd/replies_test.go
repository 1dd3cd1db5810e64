package osd

import (
	"testing"

	"repro/internal/redundancy"
	"repro/internal/sim"
)

// TestWorkerRepliesPinned pins the replies an op worker sends itself: the
// write ack, the EIO of a replicated read whose only copy is damaged, the
// EIO of an EC read with only the primary up, and an EC read the primary
// serves from its own shard. Each runs on both logging modes: the AFCeph
// profile logs asynchronously, the community one waits for its logger
// thread. The reply times, flags and event counts are those of the worker
// paths before they were built on the messenger's callback chains, which
// must reproduce them exactly.
func TestWorkerRepliesPinned(t *testing.T) {
	type pin struct {
		ackAt, readAt sim.Time
		eio, exists   bool
		dispatched    uint64
	}
	cases := []struct {
		name   string
		setup  func(h *harness)
		damage bool           // corrupt the object between write and read
		want   map[string]pin // by profile
	}{
		{"rep-damaged-no-replicas", func(h *harness) {}, true, map[string]pin{
			"afceph":    {351532, 50482889, true, false, 88},
			"community": {1510382, 51550760, true, false, 106},
		}},
		{"ec-primary-only", func(h *harness) {
			h.o.SetPolicy(redundancy.EC{K: 2, M: 1})
			set := []ShardTarget{{Self: true}, {}, {}}
			h.o.SetShardPlacer(func(uint32) []ShardTarget { return set })
		}, false, map[string]pin{
			"afceph":    {352578, 50478249, true, false, 86},
			"community": {1511428, 51520360, true, false, 103},
		}},
		{"ec-served-alone", func(h *harness) {
			h.o.SetPolicy(redundancy.EC{K: 1, M: 1})
			peer := h.net.NewEndpoint("peer", h.o.node, true)
			set := []ShardTarget{{Self: true}, {EP: peer}}
			h.o.SetShardPlacer(func(uint32) []ShardTarget { return set })
		}, false, map[string]pin{
			"afceph":    {355439, 50489467, false, true, 86},
			"community": {1514289, 51531578, false, true, 103},
		}},
	}
	profiles := []struct {
		name string
		cfg  Config
	}{
		{"afceph", AFCeph().Config()},
		{"community", CommunityConfig()},
	}
	for _, tc := range cases {
		for _, pr := range profiles {
			t.Run(tc.name+"/"+pr.name, func(t *testing.T) {
				h := newHarness(pr.cfg)
				tc.setup(h)
				h.k.Go("c", func(p *sim.Proc) {
					h.send(p, OpWrite, 1, "obj", 0, 4096, 7)
					p.Sleep(50 * sim.Millisecond)
					if tc.damage && !h.o.Store().CorruptObject("obj") {
						t.Error("no object to damage")
					}
					h.send(p, OpRead, 2, "obj", 0, 4096, 0)
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
}
