package osd

import (
	"testing"

	"repro/internal/cpumodel"
	"repro/internal/filestore"
	"repro/internal/netsim"
	"repro/internal/redundancy"
	"repro/internal/sim"
)

// fakePeer is an acting-set member played by the test: it answers every
// gather fetch at once with a fixed copy, and counts the fetches and those
// that asked for a state snapshot, which it attaches only when asked, as a
// real holder does. onFetch, when set, runs as each fetch arrives.
type fakePeer struct {
	ep         *netsim.Endpoint
	fetches    int
	wantStates int
	firstAt    sim.Time
	onFetch    func()
}

// copyState is the answer a fake peer gives: a damaged copy (unusable), an
// absent one, or a clean one holding stamp at offset 0.
type copyState int

const (
	copyDamaged copyState = iota
	copyAbsent
	copyClean
)

func (h *harness) peer(name string, c copyState, stamp uint64) *fakePeer {
	node := cpumodel.NewNode(h.k, name+".node", 16, cpumodel.JEMalloc)
	fp := &fakePeer{ep: h.net.NewEndpoint(name, node, true)}
	fp.ep.SetReceiver(func(m *netsim.Message) {
		sr := m.Payload.(*shardRead)
		if fp.fetches == 0 {
			fp.firstAt = h.k.Now()
		}
		fp.fetches++
		if sr.wantState {
			fp.wantStates++
		}
		if fp.onFetch != nil {
			fp.onFetch()
		}
		srr := &shardReadReply{sr: sr, ok: c != copyDamaged, exists: c != copyAbsent}
		if c == copyClean {
			srr.stamp = stamp
		}
		if c == copyClean && sr.wantState {
			srr.state = filestore.ObjectState{Size: 4096, Version: 1, Stamps: map[int64]uint64{0: stamp}}
			srr.stateOK = true
		}
		fp.ep.Send(nil, sr.primary, 200, MsgShardReadReply, srr)
	})
	return fp
}

// notes records the OSD's integrity events by kind.
func (h *harness) notes() map[int][]sim.Time {
	got := make(map[int][]sim.Time)
	h.o.SetIntegrityNote(func(_ string, kind int) { got[kind] = append(got[kind], h.k.Now()) })
	return got
}

// damagedRead writes obj with stamp 7 on the harness OSD alone, damages
// it, makes peers the rest of the acting set and reads it back.
func (h *harness) damagedRead(peers ...*fakePeer) *Reply {
	h.k.Go("c", func(p *sim.Proc) {
		h.send(p, OpWrite, 1, "obj", 0, 4096, 7)
		p.Sleep(50 * sim.Millisecond)
		if !h.o.FileStore().CorruptObject("obj") {
			panic("no object to damage")
		}
		set := []*netsim.Endpoint{h.o.ClusterEndpoint()}
		for _, fp := range peers {
			set = append(set, fp.ep)
		}
		h.o.SetActingSet(fixedSet(set, 0))
		h.send(p, OpRead, 2, "obj", 0, 4096, 0)
	})
	h.k.Run(5 * sim.Second)
	return h.acks[2]
}

// TestDamagedPrimarySkipsAbsentReplica: on rep3, a damaged primary asks
// its replicas in order, passes over one that lacks the object (its
// answer is stale, not a clean "absent"), serves the next one's clean copy
// and heals its own copy once from it.
func TestDamagedPrimarySkipsAbsentReplica(t *testing.T) {
	h := newHarness(AFCeph().Config())
	h.o.SetPolicy(redundancy.Replicated{N: 3})
	notes := h.notes()
	absent, clean := h.peer("absent", copyAbsent, 0), h.peer("clean", copyClean, 7)
	rep := h.damagedRead(absent, clean)
	if rep == nil || rep.EIO || !rep.Exists || rep.Stamp != 7 {
		t.Fatalf("read reply %+v, want stamp 7 from the clean replica", rep)
	}
	if absent.fetches != 1 || clean.fetches != 1 || absent.firstAt > clean.firstAt {
		t.Fatalf("fetches: absent %d at %d, clean %d at %d; want one each, in order",
			absent.fetches, absent.firstAt, clean.fetches, clean.firstAt)
	}
	if absent.wantStates != 1 || clean.wantStates != 1 {
		t.Fatalf("%d and %d fetches asked for a snapshot, want every one: the heal needs it",
			absent.wantStates, clean.wantStates)
	}
	m := h.o.Metrics()
	if m.ReadRepairs.Value() != 1 || m.RepairWrites.Value() != 1 || m.EIOs.Value() != 0 {
		t.Fatalf("read repairs %d, heals %d, EIOs %d; want 1, 1, 0",
			m.ReadRepairs.Value(), m.RepairWrites.Value(), m.EIOs.Value())
	}
	if len(notes[NoteReadRepair]) != 1 || len(notes[NoteRepaired]) != 1 {
		t.Fatalf("integrity notes %v, want one read-repair and one heal", notes)
	}
	st, ok := h.o.FileStore().ExportObject("obj")
	if !ok || st.Damaged || st.Stamps[0] != 7 {
		t.Fatalf("healed copy %+v, want clean with stamp 7", st)
	}
}

// TestDamagedPrimaryAbsentReplicaEIO: on rep2, a damaged primary whose
// only replica lacks the object fails the read with EIO; it never answers
// that the object does not exist.
func TestDamagedPrimaryAbsentReplicaEIO(t *testing.T) {
	h := newHarness(AFCeph().Config())
	h.o.SetPolicy(redundancy.Replicated{N: 2})
	notes := h.notes()
	absent := h.peer("absent", copyAbsent, 0)
	rep := h.damagedRead(absent)
	if rep == nil || !rep.EIO {
		t.Fatalf("read reply %+v, want EIO", rep)
	}
	m := h.o.Metrics()
	if absent.fetches != 1 || m.ReadRepairs.Value() != 1 || m.EIOs.Value() != 1 || m.RepairWrites.Value() != 0 {
		t.Fatalf("fetches %d, read repairs %d, EIOs %d, heals %d; want 1, 1, 1, 0",
			absent.fetches, m.ReadRepairs.Value(), m.EIOs.Value(), m.RepairWrites.Value())
	}
	if len(notes[NoteReadRepair]) != 1 || len(notes[NoteEIO]) != 1 || len(notes[NoteRepaired]) != 0 {
		t.Fatalf("integrity notes %v, want one read-repair and one EIO", notes)
	}
}

// TestDamagedECShardRepairedAtDetection: an EC primary whose own shard is
// damaged counts and notes its read-repair when it detects the damage,
// before any peer is asked, gathers k clean shards from its peers, passing
// over one whose shard is absent (stale, as on a replicated pool), and
// queues one heal.
func TestDamagedECShardRepairedAtDetection(t *testing.T) {
	h := newHarness(AFCeph().Config())
	h.o.SetPolicy(redundancy.EC{K: 2, M: 2})
	notes := h.notes()
	absent, b, c := h.peer("absent", copyAbsent, 0), h.peer("b", copyClean, 7), h.peer("c", copyClean, 7)
	var repairsAtFetch uint64
	absent.onFetch = func() { repairsAtFetch = h.o.Metrics().ReadRepairs.Value() }
	rep := h.damagedRead(absent, b, c)
	if rep == nil || rep.EIO || !rep.Exists || rep.Stamp != 7 {
		t.Fatalf("read reply %+v, want stamp 7 from the peers", rep)
	}
	if absent.fetches != 1 || b.fetches != 1 || c.fetches != 1 {
		t.Fatalf("fetches %d, %d and %d, want one each", absent.fetches, b.fetches, c.fetches)
	}
	if len(notes[NoteReadRepair]) != 1 || notes[NoteReadRepair][0] > absent.firstAt || repairsAtFetch != 1 {
		t.Fatalf("read-repair notes %v, %d counted when the first fetch arrived at %d; want one, counted and noted before",
			notes[NoteReadRepair], repairsAtFetch, absent.firstAt)
	}
	m := h.o.Metrics()
	if m.ReadRepairs.Value() != 1 || m.RepairWrites.Value() != 1 || len(notes[NoteRepaired]) != 1 {
		t.Fatalf("read repairs %d, heals %d (%d noted); want 1, 1, 1",
			m.ReadRepairs.Value(), m.RepairWrites.Value(), len(notes[NoteRepaired]))
	}
}

// TestECReadsLocalShardFirst: an EC primary reads its own shard before it
// asks any peer, even when up peers come before it in the acting set (as
// when they come back up between the client's send and the worker's
// read). Here the two peers ahead of it answer unusable, so the gather
// walks on to the one after it. The reply time and event count are
// pinned.
func TestECReadsLocalShardFirst(t *testing.T) {
	h := newHarness(AFCeph().Config())
	h.o.SetPolicy(redundancy.EC{K: 2, M: 2})
	pa, pb, pc := h.peer("pa", copyDamaged, 0), h.peer("pb", copyDamaged, 0), h.peer("pc", copyAbsent, 0)
	set := []*netsim.Endpoint{pa.ep, pb.ep, h.o.ClusterEndpoint(), pc.ep}
	h.o.SetActingSet(fixedSet(set, 2))
	localReads := uint64(0)
	pa.onFetch = func() { localReads = h.o.FileStore().Stats().Reads.Value() }
	h.k.Go("c", func(p *sim.Proc) { h.send(p, OpRead, 1, "obj", 0, 4096, 0) })
	spawned := h.k.Spawned()
	h.k.Run(5 * sim.Second)
	rep := h.acks[1]
	if rep == nil || rep.EIO || rep.Exists {
		t.Fatalf("read reply = %+v, want an answer for an absent extent", rep)
	}
	if localReads != 1 {
		t.Fatalf("%d local store reads when the first peer fetch arrived, want the local read first", localReads)
	}
	if pa.fetches != 1 || pb.fetches != 1 || pc.fetches != 1 {
		t.Fatalf("fetches %d %d %d, want one each", pa.fetches, pb.fetches, pc.fetches)
	}
	if n := h.k.Spawned() - spawned; n != 0 {
		t.Fatalf("spawned %d procs, want none", n)
	}
	if h.ackAt[1] != 963651 || h.k.Dispatched() != 62 {
		t.Fatalf("reply at %d after %d events, want 963651 and 62", h.ackAt[1], h.k.Dispatched())
	}
}

// TestDownPrimaryCountsLocalAnswer: a primary marked down while it still
// serves finds its own slot nil in the shared acting set. Its clean local
// answer still counts toward the k, so the gather asks one peer, not two.
func TestDownPrimaryCountsLocalAnswer(t *testing.T) {
	h := newHarness(AFCeph().Config())
	h.o.SetPolicy(redundancy.EC{K: 2, M: 1})
	b, c := h.peer("b", copyClean, 7), h.peer("c", copyClean, 7)
	h.k.Go("c", func(p *sim.Proc) {
		h.send(p, OpWrite, 1, "obj", 0, 4096, 7)
		p.Sleep(50 * sim.Millisecond)
		h.o.SetActingSet(fixedSet([]*netsim.Endpoint{nil, b.ep, c.ep}, 0))
		h.send(p, OpRead, 2, "obj", 0, 4096, 0)
	})
	h.k.Run(5 * sim.Second)
	rep := h.acks[2]
	if rep == nil || rep.EIO || !rep.Exists || rep.Stamp != 7 {
		t.Fatalf("read reply %+v, want stamp 7", rep)
	}
	if b.fetches != 1 || c.fetches != 0 {
		t.Fatalf("fetches %d and %d, want 1 and 0: the local answer is one of the k", b.fetches, c.fetches)
	}
	if b.wantStates != 0 {
		t.Fatalf("a clean gather asked for %d snapshots, want none", b.wantStates)
	}
}

// TestShardHolderExportsOnlyWhenAsked: a holder answers a gather fetch
// with its object snapshot only when the fetch asks for one.
func TestShardHolderExportsOnlyWhenAsked(t *testing.T) {
	h := newHarness(AFCeph().Config())
	h.o.SetPolicy(redundancy.EC{K: 2, M: 1})
	h.prim = h.net.NewEndpoint("prim", h.o.node, true)
	var got []*shardReadReply
	h.prim.SetReceiver(func(m *netsim.Message) { got = append(got, m.Payload.(*shardReadReply)) })
	h.k.Go("c", func(p *sim.Proc) {
		h.send(p, OpWrite, 1, "obj", 0, 4096, 7)
		op := &ClientOp{Kind: OpRead, OID: "obj", PG: 1, Len: 4096, ID: 2}
		for _, want := range []bool{false, true} {
			p.Sleep(50 * sim.Millisecond)
			sr := &shardRead{op: op, primary: h.prim, idx: 1, wantState: want}
			h.prim.Send(p, h.o.ClusterEndpoint(), 200, MsgShardRead, sr)
		}
	})
	h.k.Run(5 * sim.Second)
	if len(got) != 2 {
		t.Fatalf("%d answers, want 2", len(got))
	}
	plain, asked := got[0], got[1]
	if !plain.ok || plain.stamp != 7 || plain.stateOK {
		t.Fatalf("unasked answer %+v, want stamp 7 and no snapshot", plain)
	}
	if !asked.ok || asked.stamp != 7 || !asked.stateOK || asked.state.Stamps[0] != 7 {
		t.Fatalf("asked answer %+v, want stamp 7 and its snapshot", asked)
	}
}

// TestReadCrashedInSetUpEnds: a replicated read whose daemon crashes
// during the op setup ends at the generation check that follows it: no
// readCPU, no store read and no reply.
func TestReadCrashedInSetUpEnds(t *testing.T) {
	h := newHarness(AFCeph().Config())
	h.k.Go("c", func(p *sim.Proc) {
		h.send(p, OpWrite, 1, "obj", 0, 4096, 7)
		p.Sleep(50 * sim.Millisecond)
		h.send(p, OpRead, 2, "obj", 0, 4096, 0)
	})
	fs := h.o.FileStore()
	h.k.Go("crash", func(p *sim.Proc) {
		p.Sleep(50100 * sim.Microsecond) // inside the read's op setup
		if n := h.o.Metrics().ReadOps.Value(); n != 1 {
			t.Errorf("%d reads begun at the crash, want 1", n)
		}
		h.o.Crash()
	})
	h.k.Run(5 * sim.Second)
	if h.acks[1] == nil || h.acks[2] != nil {
		t.Fatalf("replies: write %v, read %v; want the write's only", h.acks[1], h.acks[2])
	}
	if n := fs.Stats().Reads.Value(); n != 0 {
		t.Fatalf("%d store reads, want none", n)
	}
}
