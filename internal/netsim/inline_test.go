package netsim

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// TestIdleMessageEvents: one 4 KiB message over an idle connection and an
// idle NIC costs four events, the egress end, the delivery, the ingress
// end and the messenger CPU end, because Send puts it on the NIC in the
// caller's event and the delivery, with no other event due at its instant,
// starts the ingress at once. Delivery is
// at egress (3396ns at ~1150 MiB/s) plus propagation (40µs); handling is a
// further ingress (3396ns) plus the messenger CPU charge.
func TestIdleMessageEvents(t *testing.T) {
	k, net, na, nb := testWorld()
	src := net.NewEndpoint("src", na, true)
	dst := net.NewEndpoint("dst", nb, true)
	var handled sim.Time
	dst.SetReceiver(func(m *Message) { handled = k.Now() })
	k.AfterCall(0, func(any) { src.Send(nil, dst, 4096, 0, nil) }, nil)
	const delivered = 43396
	// The receive connection opens at delivery: not before it, and by it.
	if n := k.Run(delivered - 1); n != 2 || dst.conns != 0 {
		t.Fatalf("before delivery: %d events, %d connections; want 2 (the send and the egress end), 0", n, dst.conns)
	}
	if n := k.Run(delivered); n != 1 || dst.conns != 1 {
		t.Fatalf("at delivery: %d events, %d connections; want 1, 1", n, dst.conns)
	}
	if n := k.Run(sim.Forever); n != 2 {
		t.Fatalf("after delivery: %d events, want 2 (ingress end, CPU end)", n)
	}
	if k.Dispatched() != 1+4 {
		t.Fatalf("dispatched %d events, want the send's plus 4", k.Dispatched())
	}
	if handled != 81172 {
		t.Fatalf("handled at %d, want 81172", handled)
	}
}

// TestSameInstantDeliveriesKeepStartEvents: two messages delivered at one
// instant to idle connections each start their ingress in an event of
// their own, as before the inline starts, because another event is due
// when each delivery runs: 1 + 2x5 events, handled at 81172 as alone.
func TestSameInstantDeliveriesKeepStartEvents(t *testing.T) {
	k, net, na, nb := testWorld()
	a := net.NewEndpoint("a", na, true)
	b := net.NewEndpoint("b", na, true)
	x := net.NewEndpoint("x", nb, true)
	y := net.NewEndpoint("y", nb, true)
	var handled []sim.Time
	recv := func(m *Message) { handled = append(handled, k.Now()) }
	x.SetReceiver(recv)
	y.SetReceiver(recv)
	k.AfterCall(0, func(any) {
		a.Send(nil, x, 4096, 0, nil)
		b.Send(nil, y, 4096, 0, nil)
	}, nil)
	k.Run(sim.Forever)
	if k.Dispatched() != 11 || fmt.Sprint(handled) != "[81.172us 81.172us]" {
		t.Fatalf("%d events, handled at %v; want 11, [81.172us 81.172us]", k.Dispatched(), handled)
	}
}

// TestInlineSendQueuesAheadOnSharedNIC pins a same-instant order: a and b
// share a NIC, b has b0 on it and b1 queued behind, and a sends a0 in an
// event that runs at the instant b0's egress ends, just before that end.
// a0 is on the NIC's queue by then, so it leaves before b1. (Were a's send
// started in an event of its own, b1 would take the NIC first.) With no
// messenger CPU, handling order is wire order.
func TestInlineSendQueuesAheadOnSharedNIC(t *testing.T) {
	k, net, na, nb := testWorld()
	net.Params.MsgCPU, net.Params.MsgAllocs = 0, 0
	nic := net.NewNIC("shared")
	a := net.NewEndpointNIC("a", na, nic, true)
	b := net.NewEndpointNIC("b", na, nic, true)
	da := net.NewEndpoint("da", nb, true)
	db := net.NewEndpoint("db", nb, true)
	var order []string
	var at []sim.Time
	recv := func(m *Message) {
		order = append(order, fmt.Sprintf("%s%d", m.From.name, m.Kind))
		at = append(at, k.Now())
	}
	da.SetReceiver(recv)
	db.SetReceiver(recv)
	const egress = 3396 // one 4 KiB message on the NIC
	// Scheduled first, so at egress it runs ahead of b0's egress end.
	k.AfterCall(egress, func(any) { a.Send(nil, da, 4096, 0, nil) }, nil)
	k.AfterCall(0, func(any) {
		b.Send(nil, db, 4096, 0, nil)
		b.Send(nil, db, 4096, 1, nil)
	}, nil)
	k.Run(sim.Forever)
	if got := fmt.Sprint(order, at); got != "[b0 a0 b1] [46.792us 50.188us 53.584us]" {
		t.Fatalf("handled %s, want [b0 a0 b1] [46.792us 50.188us 53.584us]", got)
	}
}

// TestSenderDeadAfterSendDelivers pins the other same-instant change: a
// sender marked dead later in the instant of its Send has already put its
// first message on the NIC, which delivers it; the message queued behind
// it is still in the socket buffer and is dropped.
func TestSenderDeadAfterSendDelivers(t *testing.T) {
	k, net, na, nb := testWorld()
	src := net.NewEndpoint("src", na, true)
	dst := net.NewEndpoint("dst", nb, true)
	var got []int
	dst.SetReceiver(func(m *Message) { got = append(got, m.Kind) })
	k.AfterCall(0, func(any) {
		src.Send(nil, dst, 4096, 0, nil)
		src.Send(nil, dst, 4096, 1, nil)
		src.SetDead(true)
	}, nil)
	k.Run(sim.Forever)
	if fmt.Sprint(got) != "[0]" || net.Dropped.Value() != 1 {
		t.Fatalf("delivered %v, dropped %d; want [0], 1", got, net.Dropped.Value())
	}
}
