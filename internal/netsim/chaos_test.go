package netsim

import (
	"testing"

	"repro/internal/sim"
)

// Fault-injection tests for the fabric: partitions and dead (crashed)
// endpoints.

func TestPartitionDropsAndHealRestores(t *testing.T) {
	k, net, na, nb := testWorld()
	src := net.NewEndpoint("src", na, true)
	dst := net.NewEndpoint("dst", nb, true)
	delivered := 0
	dst.SetReceiver(func(m *Message) { delivered++ })

	net.Partition(src, dst)
	if !net.Partitioned(src, dst) || !net.Partitioned(dst, src) {
		t.Fatal("partition is not symmetric")
	}
	k.Go("send", func(p *sim.Proc) { src.Send(p, dst, 4096, 0, nil) })
	k.Run(sim.Forever)
	if delivered != 0 {
		t.Fatal("message crossed a partition")
	}
	if net.Dropped.Value() != 1 {
		t.Fatalf("Dropped = %d, want 1", net.Dropped.Value())
	}

	net.Heal(src, dst)
	if net.Partitioned(src, dst) {
		t.Fatal("heal did not clear the partition")
	}
	k.Go("send", func(p *sim.Proc) { src.Send(p, dst, 4096, 0, nil) })
	k.Run(sim.Forever)
	if delivered != 1 {
		t.Fatalf("delivered = %d after heal, want 1", delivered)
	}
}

func TestHealAllClearsEveryPartition(t *testing.T) {
	k, net, na, nb := testWorld()
	src := net.NewEndpoint("src", na, true)
	dst := net.NewEndpoint("dst", nb, true)
	other := net.NewEndpoint("other", nb, true)
	_ = k
	net.Partition(src, dst)
	net.Partition(src, other)
	net.HealAll()
	if net.Partitioned(src, dst) || net.Partitioned(src, other) {
		t.Fatal("HealAll left a partition behind")
	}
}

func TestDeadSenderDropsQueuedMessages(t *testing.T) {
	k, net, na, nb := testWorld()
	src := net.NewEndpoint("src", na, true)
	dst := net.NewEndpoint("dst", nb, true)
	delivered := 0
	dst.SetReceiver(func(m *Message) { delivered++ })

	// The sender dies with messages still in its socket buffers: they must
	// never reach the wire. A revived sender resumes delivering.
	src.SetDead(true)
	if !src.dead {
		t.Fatal("SetDead(true) not reflected")
	}
	k.Go("send", func(p *sim.Proc) {
		src.Send(p, dst, 4096, 0, nil)
		src.Send(p, dst, 4096, 0, nil)
	})
	k.Run(sim.Forever)
	if delivered != 0 {
		t.Fatal("dead endpoint delivered a message")
	}
	if net.Dropped.Value() != 2 {
		t.Fatalf("Dropped = %d, want 2", net.Dropped.Value())
	}

	src.SetDead(false)
	k.Go("send", func(p *sim.Proc) { src.Send(p, dst, 4096, 0, nil) })
	k.Run(sim.Forever)
	if delivered != 1 {
		t.Fatalf("revived endpoint delivered %d, want 1", delivered)
	}
}
