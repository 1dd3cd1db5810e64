// Package netsim models the cluster network: endpoints with finite NIC
// bandwidth, propagation latency, an optional Nagle penalty for small
// frames, and a Ceph-SimpleMessenger-style receive path that charges CPU
// per message and per connection.
//
// Two paper observations depend on this model: disabling TCP_NODELAY on
// KRBD hurts small random I/O (§3.2), and the messenger's per-connection
// threads burn enough CPU to cap random-read scale-out at 16 nodes (§4.5).
// The threads themselves are not simulated processes: each connection's
// sender and receiver are chains of kernel callbacks, and the receiver's
// handler runs in kernel context (see Receiver).
package netsim

import (
	"repro/internal/cpumodel"
	"repro/internal/sim"
	"repro/internal/stats"
)

// MSS is the TCP segment payload size below which Nagle batching applies.
const MSS = 1448

// Params configures the fabric.
type Params struct {
	// Propagation is the one-way switch+stack latency.
	Propagation sim.Time
	// BytesPerSec is per-NIC bandwidth (10 GbE by default).
	BytesPerSec int64
	// NagleDelay is the extra latency suffered by a sub-MSS message on a
	// connection without TCP_NODELAY (Nagle waiting on the delayed ACK of
	// previous data).
	NagleDelay sim.Time
	// MsgCPU is the messenger CPU time charged per received message
	// (SimpleMessenger dispatch: header parse, crc, throttle, dispatch).
	MsgCPU sim.Time
	// MsgAllocs is the number of small allocations per received message.
	MsgAllocs int
	// ConnCPUFactor scales per-message CPU with the receiving endpoint's
	// connection count: effective = MsgCPU * (1 + factor*conns/100).
	// SimpleMessenger runs two threads per connection; past a few hundred
	// connections the context-switch and wakeup churn dominates — the
	// paper's 16-node random-read ceiling (§4.5).
	ConnCPUFactor float64
}

// DefaultParams returns 10 GbE datacenter parameters.
func DefaultParams() Params {
	return Params{
		Propagation:   40 * sim.Microsecond,
		BytesPerSec:   1150 << 20, // ~10 Gb/s payload
		NagleDelay:    1500 * sim.Microsecond,
		MsgCPU:        30 * sim.Microsecond,
		MsgAllocs:     35,
		ConnCPUFactor: 0.6,
	}
}

// Network is the shared fabric.
type Network struct {
	K      *sim.Kernel
	Params Params
	// BytesSent counts all payload bytes placed on the wire.
	BytesSent stats.Counter
	// Msgs counts messages delivered.
	Msgs stats.Counter
	// Dropped counts messages lost to partitions or dead (crashed) sender
	// endpoints.
	Dropped stats.Counter

	// Fault-injection state: partitions are symmetric per endpoint pair.
	partitions map[epPair]bool
	endpoints  int // endpoints created: the next one's id

	// msgFree pools Message records: a message is recycled once its handler
	// is done with it (handlers take payloads, never the wrapper) or when it
	// is dropped before reaching the wire.
	msgFree sim.FreeList[Message]
}

type epPair struct{ a, b *Endpoint }

// New creates a network on kernel k.
func New(k *sim.Kernel, params Params) *Network {
	return &Network{K: k, Params: params, partitions: make(map[epPair]bool)}
}

// Partition cuts the link between a and b in both directions: messages
// between them are silently dropped until Heal.
func (n *Network) Partition(a, b *Endpoint) {
	n.partitions[epPair{a, b}] = true
	n.partitions[epPair{b, a}] = true
}

// Heal restores the link between a and b.
func (n *Network) Heal(a, b *Endpoint) {
	delete(n.partitions, epPair{a, b})
	delete(n.partitions, epPair{b, a})
}

// HealAll removes every partition.
func (n *Network) HealAll() { n.partitions = make(map[epPair]bool) }

// Partitioned reports whether the a->b link is cut.
func (n *Network) Partitioned(a, b *Endpoint) bool {
	return len(n.partitions) > 0 && n.partitions[epPair{a, b}]
}

// Message is one transfer on the fabric. Message records are pooled by the
// Network: a receiver must not retain one past its return, or past its
// Release if it held it (the payload may be retained freely).
type Message struct {
	From    *Endpoint
	Size    int64
	Kind    int
	Payload interface{}
	SentAt  sim.Time
	tx      *txConn  // the connection that sent it, set when handed to the wire
	rx      *rxConn  // the connection handling it, set at delivery
	next    *Message // the message queued behind it on its connection
}

// msgQueue is a connection's FIFO of waiting messages, threaded through
// Message.next: a message waits on at most one connection at a time.
type msgQueue struct{ head, tail *Message }

func (q *msgQueue) push(m *Message) {
	if q.tail == nil {
		q.head = m
	} else {
		q.tail.next = m
	}
	q.tail = m
}

// pop removes and returns the oldest message, or nil.
func (q *msgQueue) pop() *Message {
	m := q.head
	if m != nil {
		q.head, m.next = m.next, nil
		if q.head == nil {
			q.tail = nil
		}
	}
	return m
}

func (n *Network) putMsg(m *Message) {
	*m = Message{}
	n.msgFree.Put(m)
}

// Receiver consumes delivered messages. It runs in kernel context, in the
// callback that ends the message's messenger CPU charge, and must not
// block. A receiver whose work must wait (a throttle, a chain of CPU
// charges) calls m.Hold and continues in callbacks: the connection stays
// stalled, as a SimpleMessenger reader thread blocked in dispatch would,
// until the continuation calls m.Release. Other connections proceed.
type Receiver func(m *Message)

// Handler is the process-style consumer signature kept for SetHandler: it
// is called in kernel context with a nil process and must not block.
type Handler func(p *sim.Proc, m *Message)

// Hold keeps the receiving connection stalled on m after the receiver
// returns, until Release.
func (m *Message) Hold() { m.rx.held = true }

// Release ends the handling of a held message: the message is recycled and
// the connection starts its next message at once. Called inside the
// receiver, it cancels the Hold.
func (m *Message) Release() {
	c := m.rx
	c.held = false
	if !c.inRecv {
		c.finish()
	}
}

// NIC is one physical network interface: the transmit and receive
// directions each serialize at the configured bandwidth. Endpoints on the
// same server must share one NIC, or the model hands a 4-OSD node 4x10GbE
// for free.
type NIC struct {
	egress  *sim.Resource
	ingress *sim.Resource
}

// NewNIC creates an interface on the fabric.
func (n *Network) NewNIC(name string) *NIC {
	return &NIC{
		egress:  sim.NewResource(n.K, name+".tx", 1),
		ingress: sim.NewResource(n.K, name+".rx", 1),
	}
}

// Endpoint is one network identity (a client mount, an OSD, a monitor).
type Endpoint struct {
	name    string
	id      int // dense, assigned by the Network in creation order
	net     *Network
	node    *cpumodel.Node
	nic     *NIC
	noDelay bool
	dead    bool
	recv    Receiver
	tx      []*txConn // connections to peers, indexed by the peer's id
	conns   int       // connections from peers (each hangs off its sender's txConn)
	// RxMsgs counts messages received by this endpoint.
	RxMsgs stats.Counter
}

// rxConn is a connection's receive side (SimpleMessenger's per-connection
// reader thread), run as a chain of kernel callbacks: wait for a message,
// serialize it off the wire, charge the messenger CPU, run the receiver,
// and, once the message is released, start the next.
type rxConn struct {
	e       *Endpoint
	q       msgQueue // messages delivered and not yet started
	m       *Message // the message being received or handled
	idle    bool     // waiting for a message: enqueue starts the connection
	inRecv  bool     // the receiver is running
	held    bool     // the receiver holds m past its return
	ingress sim.Job  // wire serialization of m; its Done is rxCharge
	cpu     cpumodel.Work
}

// txConn is a connection's outbound queue, drained by a callback chain
// standing in for SimpleMessenger's per-connection sender thread: callers
// of Send never block on wire serialization.
type txConn struct {
	e, dst *Endpoint
	q      msgQueue // messages waiting behind m
	m      *Message // the message on the NIC; nil when idle
	egress sim.Job  // its Done is txSent
	rx     *rxConn  // dst's receive side, opened at the first delivery
}

// NewEndpoint creates an endpoint with its own NIC; the receive path
// charges CPU to node.
func (n *Network) NewEndpoint(name string, node *cpumodel.Node, noDelay bool) *Endpoint {
	return n.NewEndpointNIC(name, node, n.NewNIC(name), noDelay)
}

// NewEndpointNIC creates an endpoint sharing an existing NIC (e.g. the
// four OSDs of one server node).
func (n *Network) NewEndpointNIC(name string, node *cpumodel.Node, nic *NIC, noDelay bool) *Endpoint {
	e := &Endpoint{name: name, id: n.endpoints, net: n, node: node, nic: nic, noDelay: noDelay}
	n.endpoints++
	return e
}

// SetReceiver installs the message consumer. Must be set before any peer
// sends to this endpoint.
func (e *Endpoint) SetReceiver(r Receiver) { e.recv = r }

// SetHandler installs a process-style consumer as a Receiver: h runs in
// kernel context with a nil process, so it must not block.
func (e *Endpoint) SetHandler(h Handler) { e.recv = func(m *Message) { h(nil, m) } } //afvet:allow unused cmd/afperf calls it

// SetDead marks the endpoint's process crashed: a message still queued in
// one of its outbound connections, behind the one the connection is
// sending, is dropped instead of delivered when its turn comes (the
// host's socket buffers died with it), and so is a message sent while
// dead on an idle connection. A message already handed to the NIC — as
// Send does at once on an idle connection — still goes out, and one
// handed to the delivery timer still arrives. Revived endpoints resume
// sending.
func (e *Endpoint) SetDead(v bool) { e.dead = v }

// Send hands size payload bytes toward dst to the connection's sender and
// returns immediately (SimpleMessenger semantics — I/O threads never block
// on the wire): on an idle connection the message goes to the egress NIC
// in the caller's event, otherwise it waits behind the connection's
// earlier messages. Per-connection ordering is preserved. kind and payload
// travel with the message. Send does not use p, so kernel-context callers
// pass nil.
func (e *Endpoint) Send(p *sim.Proc, dst *Endpoint, size int64, kind int, payload interface{}) {
	if size <= 0 {
		size = 1
	}
	for len(e.tx) <= dst.id {
		e.tx = append(e.tx, nil)
	}
	c := e.tx[dst.id]
	if c == nil {
		c = &txConn{e: e, dst: dst}
		c.egress.Done, c.egress.Arg = txSent, c
		e.tx[dst.id] = c
	}
	if c.m == nil && e.dead {
		// The sending process has crashed: the message dies in its socket
		// buffer without reaching the wire.
		e.net.Dropped.Inc()
		return
	}
	m := e.net.msgFree.Get()
	m.From, m.Size, m.Kind, m.Payload, m.SentAt = e, size, kind, payload, e.net.K.Now()
	if c.m != nil {
		c.q.push(m) // unbounded: never blocks the caller
		return
	}
	c.m = m
	c.send()
}

// send serializes c.m onto the egress NIC; txSent runs when it is out.
func (c *txConn) send() {
	e := c.e
	e.nic.egress.UseCall(&c.egress, sim.Time(c.m.Size*int64(sim.Second)/e.net.Params.BytesPerSec))
}

// next sends the connection's next queued message, dropping those a
// crashed sender still held, or leaves the connection idle.
func (c *txConn) next() {
	e := c.e
	for {
		m := c.q.pop()
		if m == nil {
			return
		}
		if e.dead {
			// The sending process crashed with this message still in its
			// socket buffer: it never reaches the wire.
			e.net.Dropped.Inc()
			e.net.putMsg(m)
			continue
		}
		c.m = m
		c.send()
		return
	}
}

// txSent runs when a message has left the NIC: it is lost to a partition,
// or handed to the delivery timer. The connection then sends its next
// message.
func txSent(a any) {
	c := a.(*txConn)
	e, n, m := c.e, c.e.net, c.m
	c.m = nil
	n.BytesSent.Add(uint64(m.Size))
	if n.Partitioned(e, c.dst) {
		n.Dropped.Inc()
		n.putMsg(m)
	} else {
		delay := n.Params.Propagation
		if !e.noDelay && m.Size < MSS {
			delay += n.Params.NagleDelay
		}
		m.tx = c
		n.K.AfterCall(delay, deliverMsg, m)
	}
	c.next()
}

// deliverMsg is the shared arrival callback: one pooled event record per
// in-flight message instead of one capturing closure each.
func deliverMsg(a any) {
	m := a.(*Message)
	m.tx.dst.enqueue(m.tx, m)
}

// enqueue runs in kernel context, in the delivery event: queue m on the
// receive connection tx delivers to, creating it on first contact, and
// start an idle connection. The start runs inline unless another event is
// due at this instant: then it takes an event of its own, as the reader
// thread's wake-up did, so that its ingress keeps its place among that
// instant's other NIC grants (inline, it would overtake them and move
// simulated outputs).
func (e *Endpoint) enqueue(tx *txConn, m *Message) {
	if e.recv == nil {
		panic("netsim: message delivered to endpoint without handler: " + e.name)
	}
	c := tx.rx
	if c == nil {
		c = &rxConn{e: e, idle: true}
		c.ingress.Done, c.ingress.Arg = rxCharge, c
		c.cpu.Done, c.cpu.Arg = rxHandle, c
		tx.rx = c
		e.conns++
	}
	c.q.push(m) // unbounded queue: cannot fail
	if !c.idle {
		return
	}
	c.idle = false
	if e.net.K.DueNow() {
		e.net.K.AfterCall(0, rxNext, c)
		return
	}
	c.next()
}

func rxNext(a any) { a.(*rxConn).next() }

// next starts the receive-side NIC serialization of the connection's next
// message (all endpoints sharing the NIC drain the wire at the configured
// bandwidth), or marks the connection idle.
func (c *rxConn) next() {
	m := c.q.pop()
	if m == nil {
		c.idle = true
		return
	}
	c.m = m
	e := c.e
	e.nic.ingress.UseCall(&c.ingress, sim.Time(m.Size*int64(sim.Second)/e.net.Params.BytesPerSec))
}

// rxCharge runs when a message is off the wire: it charges the per-message
// messenger CPU to the endpoint's node.
func rxCharge(a any) {
	c := a.(*rxConn)
	e := c.e
	cpu := e.net.Params.MsgCPU
	if f := e.net.Params.ConnCPUFactor; f > 0 {
		cpu = sim.Time(float64(cpu) * (1 + f*float64(e.conns)/100))
	}
	e.node.UseCall(&c.cpu, cpu+e.node.AllocCost(e.net.Params.MsgAllocs))
}

// rxHandle runs when the message's CPU charge is served: it hands the
// message to the receiver and, unless the receiver holds it, recycles it
// and starts the next.
func rxHandle(a any) {
	c := a.(*rxConn)
	e, m := c.e, c.m
	e.RxMsgs.Inc()
	e.net.Msgs.Inc()
	m.rx = c
	c.inRecv = true
	e.recv(m)
	c.inRecv = false
	if !c.held {
		c.finish()
	}
}

// finish recycles the handled message and starts the connection's next.
func (c *rxConn) finish() {
	c.e.net.putMsg(c.m)
	c.m = nil
	c.next()
}
