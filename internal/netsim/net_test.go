package netsim

import (
	"fmt"
	"testing"

	"repro/internal/cpumodel"
	"repro/internal/sim"
)

func testWorld() (*sim.Kernel, *Network, *cpumodel.Node, *cpumodel.Node) {
	k := sim.NewKernel()
	net := New(k, DefaultParams())
	a := cpumodel.NewNode(k, "nodeA", 8, cpumodel.JEMalloc)
	b := cpumodel.NewNode(k, "nodeB", 8, cpumodel.JEMalloc)
	return k, net, a, b
}

func TestSendDeliversPayload(t *testing.T) {
	k, net, na, nb := testWorld()
	src := net.NewEndpoint("src", na, true)
	dst := net.NewEndpoint("dst", nb, true)
	// Message records are pooled: copy the wrapper in the handler instead
	// of retaining the pointer past its return.
	var got Message
	var delivered bool
	var at sim.Time
	dst.SetReceiver(func(m *Message) {
		got = *m
		delivered = true
		at = k.Now()
	})
	k.Go("send", func(p *sim.Proc) {
		src.Send(p, dst, 4096, 7, "hello")
	})
	k.Run(sim.Forever)
	if !delivered || got.Kind != 7 || got.Payload.(string) != "hello" || got.From != src {
		t.Fatalf("message mangled: %+v", got)
	}
	if at < net.Params.Propagation {
		t.Fatalf("delivered before propagation: %v", at)
	}
	if net.Msgs.Value() != 1 || net.BytesSent.Value() != 4096 {
		t.Fatal("fabric accounting wrong")
	}
}

func TestNagleDelaysSmallMessages(t *testing.T) {
	deliveryTime := func(noDelay bool, size int64) sim.Time {
		k, net, na, nb := testWorld()
		src := net.NewEndpoint("src", na, noDelay)
		dst := net.NewEndpoint("dst", nb, true)
		var at sim.Time
		dst.SetReceiver(func(m *Message) { at = k.Now() })
		k.Go("send", func(p *sim.Proc) { src.Send(p, dst, size, 0, nil) })
		k.Run(sim.Forever)
		return at
	}
	small := int64(512)
	withNagle := deliveryTime(false, small)
	without := deliveryTime(true, small)
	if withNagle < without+sim.Millisecond {
		t.Fatalf("nagle on=%v off=%v: want >=1.5ms penalty", withNagle, without)
	}
	// Large messages are unaffected by Nagle.
	bigOn := deliveryTime(false, 64<<10)
	bigOff := deliveryTime(true, 64<<10)
	if bigOn != bigOff {
		t.Fatalf("nagle affected large message: on=%v off=%v", bigOn, bigOff)
	}
}

func TestNICSerializesBandwidth(t *testing.T) {
	k, net, na, nb := testWorld()
	src := net.NewEndpoint("src", na, true)
	dst := net.NewEndpoint("dst", nb, true)
	received := 0
	var lastDelivery sim.Time
	dst.SetReceiver(func(m *Message) {
		received++
		lastDelivery = k.Now()
	})
	var sendDone sim.Time
	k.Go("send", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			src.Send(p, dst, 1<<20, 0, nil) // 10 x 1MiB
		}
		sendDone = p.Now()
	})
	k.Run(sim.Forever)
	// SimpleMessenger semantics: the caller only enqueues — it is not
	// occupied for wire serialization...
	if sendDone != 0 {
		t.Fatalf("sender occupied %v, want 0 (async send)", sendDone)
	}
	// ...but the wire still paces deliveries: 10 MiB at ~1150 MiB/s takes
	// ~8.7 ms end to end (tx + rx serialization at the same rate).
	want := 10 * sim.Time((1<<20)*int64(sim.Second)/net.Params.BytesPerSec)
	if lastDelivery < want || lastDelivery > 2*want+sim.Millisecond {
		t.Fatalf("last delivery at %v, want ~%v (NIC-paced)", lastDelivery, want)
	}
	if received != 10 {
		t.Fatalf("received %d", received)
	}
}

func TestMessengerChargesCPU(t *testing.T) {
	k, net, na, nb := testWorld()
	src := net.NewEndpoint("src", na, true)
	dst := net.NewEndpoint("dst", nb, true)
	dst.SetReceiver(func(m *Message) {})
	k.Go("send", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			src.Send(p, dst, 4096, 0, nil)
		}
	})
	k.Run(sim.Forever)
	if nb.BusyNanos() < uint64(100*net.Params.MsgCPU) {
		t.Fatalf("receiver CPU = %d ns, want >= %d", nb.BusyNanos(), 100*net.Params.MsgCPU)
	}
	if na.BusyNanos() != 0 {
		t.Fatalf("sender node charged CPU: %d", na.BusyNanos())
	}
}

func TestPerConnectionOrderingPreserved(t *testing.T) {
	k, net, na, nb := testWorld()
	src := net.NewEndpoint("src", na, true)
	dst := net.NewEndpoint("dst", nb, true)
	var got []int
	dst.SetReceiver(func(m *Message) { got = append(got, m.Kind) })
	k.Go("send", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			src.Send(p, dst, 4096, i, nil)
		}
	})
	k.Run(sim.Forever)
	if len(got) != 50 {
		t.Fatalf("received %d messages", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("messages reordered on one connection: %v", got[:i+1])
		}
	}
}

func TestConnectionsTracked(t *testing.T) {
	k, net, na, nb := testWorld()
	dst := net.NewEndpoint("dst", nb, true)
	dst.SetReceiver(func(m *Message) {})
	for i := 0; i < 5; i++ {
		src := net.NewEndpoint("src", na, true)
		k.Go("send", func(p *sim.Proc) { src.Send(p, dst, 100, 0, nil) })
	}
	k.Run(sim.Forever)
	if dst.conns != 5 {
		t.Fatalf("connections = %d", dst.conns)
	}
}

func TestZeroSizeMessageClamped(t *testing.T) {
	k, net, na, nb := testWorld()
	src := net.NewEndpoint("src", na, true)
	dst := net.NewEndpoint("dst", nb, true)
	n := 0
	dst.SetReceiver(func(m *Message) { n++ })
	k.Go("send", func(p *sim.Proc) { src.Send(p, dst, 0, 0, nil) })
	k.Run(sim.Forever)
	if n != 1 {
		t.Fatal("zero-size message lost")
	}
}

func TestHandlerMissingPanics(t *testing.T) {
	k, net, na, nb := testWorld()
	src := net.NewEndpoint("src", na, true)
	dst := net.NewEndpoint("dst", nb, true)
	k.Go("send", func(p *sim.Proc) { src.Send(p, dst, 100, 0, nil) })
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for handler-less endpoint")
		}
	}()
	k.Run(sim.Forever)
}

func TestManyConnectionsSaturateCPU(t *testing.T) {
	// With a 1-core receiver, many senders' messenger threads contend: the
	// paper's random-read scale-out ceiling. Check CPU saturates.
	k := sim.NewKernel()
	net := New(k, DefaultParams())
	nodeRx := cpumodel.NewNode(k, "rx", 1, cpumodel.JEMalloc)
	nodeTx := cpumodel.NewNode(k, "tx", 64, cpumodel.JEMalloc)
	dst := net.NewEndpoint("dst", nodeRx, true)
	dst.SetReceiver(func(m *Message) {})
	for i := 0; i < 16; i++ {
		src := net.NewEndpoint("src", nodeTx, true)
		k.Go("send", func(p *sim.Proc) {
			for p.Now() < 100*sim.Millisecond {
				src.Send(p, dst, 4096, 0, nil)
				p.Sleep(20 * sim.Microsecond)
			}
		})
	}
	k.Run(200 * sim.Millisecond)
	if u := nodeRx.Utilization(); u < 0.5 {
		t.Fatalf("receiver CPU utilization = %.2f, want saturated", u)
	}
}

func TestSharedNICSerializesAcrossEndpoints(t *testing.T) {
	// Two endpoints on one NIC must share its bandwidth; two endpoints on
	// separate NICs must not.
	run := func(shared bool) sim.Time {
		k := sim.NewKernel()
		net := New(k, DefaultParams())
		tx := cpumodel.NewNode(k, "tx", 16, cpumodel.JEMalloc)
		rx := cpumodel.NewNode(k, "rx", 16, cpumodel.JEMalloc)
		nicA := net.NewNIC("a")
		nicB := nicA
		if !shared {
			nicB = net.NewNIC("b")
		}
		srcA := net.NewEndpointNIC("srcA", tx, nicA, true)
		srcB := net.NewEndpointNIC("srcB", tx, nicB, true)
		var last sim.Time
		done := 0
		handler := func(m *Message) {
			done++
			if k.Now() > last {
				last = k.Now()
			}
		}
		// Separate receive NICs so only the send side differs.
		dstA := net.NewEndpoint("dstA", rx, true)
		dstA.SetReceiver(handler)
		dstB := net.NewEndpoint("dstB", rx, true)
		dstB.SetReceiver(handler)
		k.Go("sendA", func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				srcA.Send(p, dstA, 1<<20, 0, nil)
			}
		})
		k.Go("sendB", func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				srcB.Send(p, dstB, 1<<20, 0, nil)
			}
		})
		k.Run(sim.Forever)
		if done != 40 {
			t.Fatalf("delivered %d", done)
		}
		return last
	}
	sharedT := run(true)
	splitT := run(false)
	if sharedT < splitT*3/2 {
		t.Fatalf("shared NIC (%v) not well slower than split NICs (%v)", sharedT, splitT)
	}
}

func TestEndpointAccessors(t *testing.T) {
	k, net, na, _ := testWorld()
	e := net.NewEndpoint("e", na, false)
	if e.name != "e" || e.node != na || e.noDelay {
		t.Fatal("accessors wrong")
	}
	_ = k
}

// TestMessengerSpawnsNoProcess pins that the messenger is all callbacks:
// N messages A->B, sent and handled in kernel context, spawn no process
// and resume none. It installs the consumer through the SetHandler
// adapter, which passes a nil process.
func TestMessengerSpawnsNoProcess(t *testing.T) {
	const n = 50
	k, net, na, nb := testWorld()
	a := net.NewEndpoint("a", na, true)
	b := net.NewEndpoint("b", nb, true)
	handled := 0
	b.SetHandler(func(p *sim.Proc, m *Message) {
		if p != nil {
			t.Error("SetHandler passed a process")
		}
		handled++
	})
	k.AfterCall(0, func(any) {
		for i := 0; i < n; i++ {
			a.Send(nil, b, 4096, 0, nil)
		}
	}, nil)
	k.Run(sim.Forever)
	if handled != n {
		t.Fatalf("handled %d of %d", handled, n)
	}
	if k.Spawned() != 0 || k.Resumes() != 0 {
		t.Fatalf("spawned %d procs and resumed %d, want none", k.Spawned(), k.Resumes())
	}
}

// TestHeldMessageStallsOnlyItsConnection holds A's first message at B for
// 10ms: A's later messages wait behind it in FIFO order, C's connection to
// B proceeds meanwhile, and a Release inside the receiver cancels a Hold.
func TestHeldMessageStallsOnlyItsConnection(t *testing.T) {
	k, net, na, nb := testWorld()
	a := net.NewEndpoint("a", na, true)
	c := net.NewEndpoint("c", na, true)
	b := net.NewEndpoint("b", nb, true)
	var got []string
	var released, a1 sim.Time
	b.SetReceiver(func(m *Message) {
		got = append(got, fmt.Sprintf("%s%d", m.From.name, m.Kind))
		if m.From == a && m.Kind == 1 {
			a1 = k.Now()
		}
		switch {
		case m.From == a && m.Kind == 0:
			m.Hold()
			k.AfterCall(10*sim.Millisecond, func(any) {
				released = k.Now()
				m.Release()
			}, nil)
		case m.From == c && m.Kind == 0:
			m.Hold()
			m.Release()
		}
	})
	spawned := k.Spawned()
	k.AfterCall(0, func(any) {
		for i := 0; i < 3; i++ {
			a.Send(nil, b, 4096, i, nil)
			c.Send(nil, b, 4096, i, nil)
		}
	}, nil)
	k.Run(sim.Forever)
	want := "[a0 c0 c1 c2 a1 a2]"
	if fmt.Sprint(got) != want {
		t.Fatalf("handled %v, want %v", got, want)
	}
	if released == 0 || a1 < released {
		t.Fatalf("a1 handled at %v, before the release at %v", a1, released)
	}
	if k.Spawned() != spawned {
		t.Fatalf("traffic spawned %d procs", k.Spawned()-spawned)
	}
	if b.RxMsgs.Value() != 6 || net.Msgs.Value() != 6 {
		t.Fatalf("rx %d msgs %d, want 6", b.RxMsgs.Value(), net.Msgs.Value())
	}
}
