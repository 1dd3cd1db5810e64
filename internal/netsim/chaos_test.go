package netsim

import (
	"testing"

	"repro/internal/sim"
)

// Fault-injection tests for the fabric: partitions, dead (crashed)
// endpoints, and probabilistic chaos drops/delays.

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

func TestChaosDropsAreSeededAndDeterministic(t *testing.T) {
	run := func(seed uint64) (delivered int, dropped uint64) {
		k, net, na, nb := testWorld()
		src := net.NewEndpoint("src", na, true)
		dst := net.NewEndpoint("dst", nb, true)
		dst.SetReceiver(func(m *Message) { delivered++ })
		net.SeedFaults(seed)
		net.dropProb = 0.3
		k.Go("send", func(p *sim.Proc) {
			for i := 0; i < 200; i++ {
				src.Send(p, dst, 4096, 0, nil)
			}
		})
		k.Run(sim.Forever)
		return delivered, net.Dropped.Value()
	}
	d1, x1 := run(7)
	if x1 == 0 || d1 == 200 {
		t.Fatalf("chaos dropped nothing: delivered=%d dropped=%d", d1, x1)
	}
	if d1+int(x1) != 200 {
		t.Fatalf("accounting: delivered=%d + dropped=%d != 200", d1, x1)
	}
	d2, x2 := run(7)
	if d1 != d2 || x1 != x2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", d1, x1, d2, x2)
	}
	d3, x3 := run(8)
	if d1 == d3 && x1 == x3 {
		t.Fatal("different seeds produced identical drop pattern (suspicious)")
	}
}

func TestChaosExtraDelayShiftsDelivery(t *testing.T) {
	deliveryTime := func(extra sim.Time) sim.Time {
		k, net, na, nb := testWorld()
		src := net.NewEndpoint("src", na, true)
		dst := net.NewEndpoint("dst", nb, true)
		var at sim.Time
		dst.SetReceiver(func(m *Message) { at = k.Now() })
		net.extraDelay = extra
		k.Go("send", func(p *sim.Proc) { src.Send(p, dst, 4096, 0, nil) })
		k.Run(sim.Forever)
		return at
	}
	base := deliveryTime(0)
	slow := deliveryTime(5 * sim.Millisecond)
	if slow != base+5*sim.Millisecond {
		t.Fatalf("extra delay off: base=%v slow=%v, want +5ms exactly", base, slow)
	}
}
