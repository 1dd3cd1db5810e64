package osd

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cpumodel"
	"repro/internal/device"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/sim"
)

// harness wires a single OSD with no replicas and a fake client endpoint.
type harness struct {
	k      *sim.Kernel
	o      *OSD
	client *netsim.Endpoint
	acks   map[uint64]*Reply
	ackAt  map[uint64]sim.Time
}

func newHarness(cfg Config) *harness {
	k := sim.NewKernel()
	net := netsim.New(k, netsim.DefaultParams())
	node := cpumodel.NewNode(k, "server", 16, cpumodel.JEMalloc)
	clientNode := cpumodel.NewNode(k, "client", 16, cpumodel.JEMalloc)
	r := rng.New(1)
	ssd := device.NewSSD(k, "ssd", device.DefaultSSDParams(), r)
	nvram := device.NewNVRAM(k, "nvram", device.DefaultNVRAMParams())
	ep := net.NewEndpoint("osd", node, true)
	cfg.FStore.VerifyData = true
	o := New(k, cfg, node, ep, ssd, nvram, r)
	o.SetPlacer(func(pg uint32) []*netsim.Endpoint { return nil })
	h := &harness{k: k, o: o, acks: make(map[uint64]*Reply), ackAt: make(map[uint64]sim.Time)}
	h.client = net.NewEndpoint("client", clientNode, true)
	h.client.SetHandler(func(p *sim.Proc, m *netsim.Message) {
		rep := m.Payload.(*Reply)
		h.acks[rep.Op.ID] = rep
		h.ackAt[rep.Op.ID] = p.Now()
	})
	return h
}

func (h *harness) send(p *sim.Proc, kind OpKind, id uint64, oid string, off, size int64, stamp uint64) {
	op := &ClientOp{
		Kind: kind, OID: oid, PG: 1, Off: off, Len: size,
		Stamp: stamp, Client: h.client, ID: id,
	}
	msgKind := MsgWrite
	if kind == OpRead {
		msgKind = MsgRead
	}
	h.client.Send(p, h.o.Endpoint(), size+200, msgKind, op)
}

func TestSingleOSDWriteAcked(t *testing.T) {
	h := newHarness(AFCeph().Config())
	h.k.Go("c", func(p *sim.Proc) {
		h.send(p, OpWrite, 1, "obj", 0, 4096, 7)
	})
	h.k.Run(5 * sim.Second)
	if h.acks[1] == nil {
		t.Fatal("write never acked")
	}
	if h.o.Metrics().WriteOps.Value() != 1 || h.o.Metrics().AcksSent.Value() != 1 {
		t.Fatal("metrics wrong")
	}
}

func TestSingleOSDReadReturnsStamp(t *testing.T) {
	h := newHarness(AFCeph().Config())
	h.k.Go("c", func(p *sim.Proc) {
		h.send(p, OpWrite, 1, "obj", 0, 4096, 99)
		p.Sleep(50 * sim.Millisecond)
		h.send(p, OpRead, 2, "obj", 0, 4096, 0)
	})
	h.k.Run(5 * sim.Second)
	rep := h.acks[2]
	if rep == nil || !rep.Exists || rep.Stamp != 99 {
		t.Fatalf("read reply = %+v", rep)
	}
}

func TestCommunityBatchingDelaysLowLoadOps(t *testing.T) {
	// A single op under community config waits for the wakeup timeout;
	// under AFCeph (batch=1) it does not.
	ackTime := func(cfg Config) sim.Time {
		h := newHarness(cfg)
		h.k.Go("c", func(p *sim.Proc) {
			h.send(p, OpWrite, 1, "obj", 0, 4096, 1)
		})
		h.k.Run(5 * sim.Second)
		return h.ackAt[1]
	}
	comm := ackTime(CommunityConfig())
	af := ackTime(AFCeph().Config())
	if comm < af+sim.Millisecond {
		t.Fatalf("community single-op latency %v should exceed AFCeph %v by the batch timeout", comm, af)
	}
}

func TestJournalFullBlocksWrites(t *testing.T) {
	cfg := AFCeph().Config()
	cfg.JournalSize = 64 << 10 // 16 blocks
	// Slow the filestore drain so the ring fills: sustained device +
	// community heavy transactions.
	cfg.FStore.MinimizeSyscalls = false
	cfg.FStore.WriteThroughMetaCache = false
	cfg.FStore.MetaMissProb = 1.0
	cfg.NumFilestoreWorkers = 1
	h := newHarness(cfg)
	for i := 0; i < 4; i++ {
		i := i
		h.k.Go("c", func(p *sim.Proc) {
			for j := 0; j < 100; j++ {
				h.send(p, OpWrite, uint64(i*1000+j), "obj", int64(j)*4096, 4096, 1)
				p.Sleep(100 * sim.Microsecond)
			}
		})
	}
	h.k.Run(20 * sim.Second)
	if h.o.Journal().Stats().FullStalls.Value() == 0 {
		t.Fatal("journal never filled")
	}
}

func TestTraceCollectorSampling(t *testing.T) {
	cfg := AFCeph().Config()
	cfg.TraceSample = 2 // every second write
	h := newHarness(cfg)
	h.k.Go("c", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			h.send(p, OpWrite, uint64(i+1), "obj", int64(i)*4096, 4096, 1)
			p.Sleep(10 * sim.Millisecond)
		}
	})
	h.k.Run(5 * sim.Second)
	n := h.o.Traces().Count()
	if n != 5 {
		t.Fatalf("traced %d writes, want 5", n)
	}
	rep := h.o.Traces().Report()
	if !strings.Contains(rep, "journal-written") || !strings.Contains(rep, "acked") {
		t.Fatalf("report missing stages:\n%s", rep)
	}
}

func TestTraceStagesMonotonic(t *testing.T) {
	cfg := CommunityConfig()
	cfg.TraceSample = 1
	h := newHarness(cfg)
	h.k.Go("c", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			h.send(p, OpWrite, uint64(i+1), "obj", int64(i)*4096, 4096, 1)
			p.Sleep(5 * sim.Millisecond)
		}
	})
	h.k.Run(5 * sim.Second)
	c := h.o.Traces()
	// Cumulative means must be non-decreasing through the primary path
	// (replica-commit is skipped: no replicas in this harness).
	stages := []int{StageReceived, StageQueued, StageDequeued, StagePrepared, StageSubmitted,
		StageJournalWritten, StageLocalCommit, StageCommitsDone, StageAcked}
	prev := -1.0
	for _, s := range stages {
		m := c.StageMeanMillis(s)
		if m < prev {
			t.Fatalf("stage %s mean %.3f < previous %.3f", StageNames[s], m, prev)
		}
		prev = m
	}
}

func TestTraceCollectorIgnoresIncomplete(t *testing.T) {
	c := NewTraceCollector(true)
	c.Add(nil)
	c.Add(&Trace{}) // never acked
	if c.Count() != 0 {
		t.Fatal("incomplete traces counted")
	}
}

func TestProfilesDiffer(t *testing.T) {
	comm := CommunityConfig()
	af := AFCeph().Config()
	if !af.OptPendingQueue || !af.OptCompletionWorker || !af.OptFastAck {
		t.Fatal("AFCeph toggles off")
	}
	if comm.OptPendingQueue || comm.OptCompletionWorker || comm.OptFastAck {
		t.Fatal("community has optimizations on")
	}
	if comm.Throttles.FilestoreQueueMaxOps >= af.Throttles.FilestoreQueueMaxOps {
		t.Fatal("throttles not tuned")
	}
	if comm.WakeupBatch <= af.WakeupBatch {
		t.Fatal("batching not relaxed")
	}
	if comm.FStore.BatchKVOps || !af.FStore.BatchKVOps {
		t.Fatal("light tx not applied")
	}
}

func TestTuningPresets(t *testing.T) {
	if Community() != (Tuning{}) {
		t.Fatal("Community() not stock")
	}
	af := AFCeph()
	if !af.PendingQueue || !af.CompletionWorker || !af.FastAck || !af.ThrottleSSD ||
		!af.Jemalloc || !af.NoDelay || !af.AsyncLog || !af.LightTx || !af.NoBatchWakeup {
		t.Fatalf("AFCeph() missing optimizations: %+v", af)
	}
	if af.LogOff {
		t.Fatal("AFCeph keeps logging on (non-blocking), not off")
	}
	if af.OrderedAcks {
		t.Fatal("AFCeph leaves ack ordering to the client")
	}
	if !reflect.DeepEqual(Community().Config(), CommunityConfig()) {
		t.Fatal("Community().Config drifted from CommunityConfig")
	}
}

func TestProfileByName(t *testing.T) {
	for name, want := range map[string]Tuning{"community": Community(), "afceph": AFCeph()} {
		got, err := ProfileByName(name)
		if err != nil || got != want {
			t.Fatalf("ProfileByName(%q) = %+v, %v", name, got, err)
		}
	}
	for _, bad := range []string{"", "AFCeph", "bogus"} {
		if _, err := ProfileByName(bad); err == nil {
			t.Fatalf("ProfileByName(%q) accepted", bad)
		}
	}
}

func TestOrderedAcksHoldOutOfOrder(t *testing.T) {
	cfg := AFCeph().Config()
	cfg.OrderedAcks = true
	h := newHarness(cfg)
	// Many concurrent writers to one PG; with fast-ack paths acks could
	// complete out of order, but OrderedAcks must deliver them in seq
	// order. We verify every op is acked and ack times are ordered by the
	// per-PG sequence (which equals submission order here).
	const n = 30
	h.k.Go("c", func(p *sim.Proc) {
		for i := 1; i <= n; i++ {
			h.send(p, OpWrite, uint64(i), "obj", int64(i)*4096, 4096, uint64(i))
		}
	})
	h.k.Run(10 * sim.Second)
	if len(h.acks) != n {
		t.Fatalf("acked %d of %d", len(h.acks), n)
	}
	for i := 2; i <= n; i++ {
		if h.ackAt[uint64(i)] < h.ackAt[uint64(i-1)] {
			t.Fatalf("ack %d (at %v) before ack %d (at %v)",
				i, h.ackAt[uint64(i)], i-1, h.ackAt[uint64(i-1)])
		}
	}
}

func TestCostsDefaultsSane(t *testing.T) {
	c := DefaultCosts()
	if c.OpSetupCPU <= 0 || c.PGLogBuildCPU <= 0 || c.CommitCPU <= c.CommitFastCPU {
		t.Fatal("cost defaults inconsistent")
	}
	if c.JournalHeaderBytes <= 0 || c.PGLogValueBytes <= 0 {
		t.Fatal("byte overheads missing")
	}
}

func TestMsgCapThrottlesConnections(t *testing.T) {
	// With a tiny osd_client_message_cap, a burst of client writes must be
	// admitted at most cap-at-a-time: the throttle blocks the messenger.
	cfg := CommunityConfig()
	cfg.Throttles.OSDClientMessageCap = 2
	h := newHarness(cfg)
	h.k.Go("c", func(p *sim.Proc) {
		for i := 0; i < 12; i++ {
			h.send(p, OpWrite, uint64(i+1), "obj", int64(i)*4096, 4096, 1)
		}
	})
	h.k.Run(10 * sim.Second)
	if len(h.acks) != 12 {
		t.Fatalf("acked %d of 12", len(h.acks))
	}
	if h.o.MsgCap().Throttled() == 0 {
		t.Fatal("message cap never throttled a 12-deep burst with cap 2")
	}
}

func TestFsThrottleBackpressuresWriters(t *testing.T) {
	// A filestore throttle of 1 serializes the journal->apply pipeline;
	// all ops still complete.
	cfg := CommunityConfig()
	cfg.Throttles.FilestoreQueueMaxOps = 1
	h := newHarness(cfg)
	h.k.Go("c", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			h.send(p, OpWrite, uint64(i+1), "obj", int64(i)*4096, 4096, 1)
		}
	})
	h.k.Run(20 * sim.Second)
	if len(h.acks) != 8 {
		t.Fatalf("acked %d of 8", len(h.acks))
	}
	if h.o.FsThrottle().Throttled() == 0 {
		t.Fatal("filestore throttle never engaged at depth 1")
	}
}
