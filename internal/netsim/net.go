// Package netsim models the cluster network: endpoints with finite NIC
// bandwidth, propagation latency, an optional Nagle penalty for small
// frames, and a Ceph-SimpleMessenger-style receive path that charges CPU
// per message on per-connection receiver threads.
//
// Two paper observations depend on this model: disabling TCP_NODELAY on
// KRBD hurts small random I/O (§3.2), and the messenger's per-connection
// threads burn enough CPU to cap random-read scale-out at 16 nodes (§4.5).
package netsim

import (
	"repro/internal/cpumodel"
	"repro/internal/rng"
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
	// A message must cost some CPU: MsgCPU or MsgAllocs must be positive.
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
	// Dropped counts messages lost to partitions, chaos drops, or dead
	// (crashed) sender endpoints.
	Dropped stats.Counter

	// Fault-injection state. Partitions are symmetric per endpoint pair;
	// dropProb/extraDelay apply to every message while set. The chaos rng
	// is consulted only while dropProb > 0, so fault-free runs are
	// bit-identical with or without a seeded stream.
	partitions map[epPair]bool
	dropProb   float64
	extraDelay sim.Time
	chaosRnd   *rng.Rand

	// msgFree pools Message records: a message is recycled once its handler
	// returns (handlers take payloads, never the wrapper) or when it is
	// dropped before reaching the wire.
	msgFree []*Message
}

type epPair struct{ a, b *Endpoint }

// New creates a network on kernel k.
func New(k *sim.Kernel, params Params) *Network {
	return &Network{K: k, Params: params, partitions: make(map[epPair]bool)}
}

// SeedFaults installs the rng stream used by probabilistic chaos (SetChaos
// drop decisions). Without it, SetChaos with dropProb > 0 panics.
func (n *Network) SeedFaults(seed uint64) { n.chaosRnd = rng.New(seed) }

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
func (n *Network) Partitioned(a, b *Endpoint) bool { return n.partitions[epPair{a, b}] }

// SetChaos drops each message with probability dropProb and delays every
// delivery by extraDelay. Requires SeedFaults first when dropProb > 0.
func (n *Network) SetChaos(dropProb float64, extraDelay sim.Time) {
	if dropProb > 0 && n.chaosRnd == nil {
		panic("netsim: SetChaos with dropProb needs SeedFaults")
	}
	n.dropProb = dropProb
	n.extraDelay = extraDelay
}

// Message is one transfer on the fabric. Message records are pooled by the
// Network: handlers must not retain one past their return (the payload may
// be retained freely).
type Message struct {
	From    *Endpoint
	Size    int64
	Kind    int
	Payload interface{}
	SentAt  sim.Time
	to      *Endpoint // delivery destination, set when handed to the wire
}

func (n *Network) getMsg() *Message {
	if l := len(n.msgFree); l > 0 {
		m := n.msgFree[l-1]
		n.msgFree[l-1] = nil
		n.msgFree = n.msgFree[:l-1]
		return m
	}
	return &Message{}
}

func (n *Network) putMsg(m *Message) {
	*m = Message{}
	n.msgFree = append(n.msgFree, m)
}

// Handler consumes delivered messages. It runs on the receiving
// connection's messenger process; long work must be handed off to queues.
type Handler func(p *sim.Proc, m *Message)

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
	net     *Network
	node    *cpumodel.Node
	nic     *NIC
	noDelay bool
	dead    bool
	handler Handler
	rx      map[*Endpoint]*rxConn
	tx      map[*Endpoint]*txConn
	// RxMsgs counts messages received by this endpoint.
	RxMsgs stats.Counter
}

// rxConn is a connection's receive side (SimpleMessenger's per-connection
// reader thread). Waiting for a message and serializing it off the wire are
// callbacks; the connection's process parks on the message's CPU charge and
// runs the handler, which may block.
type rxConn struct {
	e       *Endpoint
	q       *sim.Queue[*Message]
	m       *Message // the message being received or handled
	idle    bool     // waiting for a message: enqueue wakes the connection
	ingress sim.Job  // wire serialization of m; its Done is rxCharge
	cpu     cpumodel.Work
}

// txConn is a connection's outbound queue, drained by a callback chain
// standing in for SimpleMessenger's per-connection sender thread: callers
// of Send never block on wire serialization.
type txConn struct {
	e, dst *Endpoint
	q      *sim.Queue[*Message]
	m      *Message // the message on the NIC
	busy   bool     // sending, or about to: Send need not start the chain
	egress sim.Job  // its Done is txSent
}

// NewEndpoint creates an endpoint with its own NIC; the receive path
// charges CPU to node.
func (n *Network) NewEndpoint(name string, node *cpumodel.Node, noDelay bool) *Endpoint {
	return n.NewEndpointNIC(name, node, n.NewNIC(name), noDelay)
}

// NewEndpointNIC creates an endpoint sharing an existing NIC (e.g. the
// four OSDs of one server node).
func (n *Network) NewEndpointNIC(name string, node *cpumodel.Node, nic *NIC, noDelay bool) *Endpoint {
	return &Endpoint{
		name:    name,
		net:     n,
		node:    node,
		nic:     nic,
		noDelay: noDelay,
		rx:      make(map[*Endpoint]*rxConn),
		tx:      make(map[*Endpoint]*txConn),
	}
}

// Name returns the endpoint name.
func (e *Endpoint) Name() string { return e.name }

// Node returns the CPU node that pays for this endpoint's messenger work.
func (e *Endpoint) Node() *cpumodel.Node { return e.node }

// SetNoDelay toggles TCP_NODELAY for messages *sent* by this endpoint.
func (e *Endpoint) SetNoDelay(v bool) { e.noDelay = v }

// NoDelay reports the TCP_NODELAY setting.
func (e *Endpoint) NoDelay() bool { return e.noDelay }

// SetHandler installs the message consumer. Must be set before any peer
// sends to this endpoint.
func (e *Endpoint) SetHandler(h Handler) { e.handler = h }

// SetDead marks the endpoint's process crashed: messages still queued in
// its outbound connections are dropped instead of delivered (the host's
// socket buffers died with it). Messages already on the wire — handed to
// the delivery timer — still arrive. Revived endpoints resume sending.
func (e *Endpoint) SetDead(v bool) { e.dead = v }

// Dead reports whether the endpoint is crashed.
func (e *Endpoint) Dead() bool { return e.dead }

// Send queues size payload bytes toward dst and returns immediately: the
// connection's sender serializes the transfer onto the NIC
// (SimpleMessenger semantics — I/O threads never block on the wire).
// Per-connection ordering is preserved. kind and payload travel with the
// message.
func (e *Endpoint) Send(p *sim.Proc, dst *Endpoint, size int64, kind int, payload interface{}) {
	if size <= 0 {
		size = 1
	}
	c, ok := e.tx[dst]
	if !ok {
		c = &txConn{e: e, dst: dst, q: sim.NewQueue[*Message](e.net.K, e.name+"->"+dst.name, 0)}
		c.egress.Done, c.egress.Arg = txSent, c
		e.tx[dst] = c
	}
	m := e.net.getMsg()
	m.From, m.Size, m.Kind, m.Payload, m.SentAt = e, size, kind, payload, p.Now()
	c.q.TryPush(m) // unbounded: never blocks the caller
	if !c.busy {
		c.busy = true
		e.net.K.AfterCall(0, txNext, c)
	}
}

func txNext(a any) { a.(*txConn).next() }

// next puts the connection's next message on the egress NIC, dropping
// those a crashed sender still held, or marks the connection idle.
func (c *txConn) next() {
	e := c.e
	for {
		m, ok := c.q.TryPop()
		if !ok {
			c.busy = false
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
		e.nic.egress.UseCall(&c.egress, sim.Time(m.Size*int64(sim.Second)/e.net.Params.BytesPerSec))
		return
	}
}

// txSent runs when a message has left the NIC: it is lost to a partition
// or a chaos drop, or handed to the delivery timer. The connection then
// sends its next message.
func txSent(a any) {
	c := a.(*txConn)
	e, n, m := c.e, c.e.net, c.m
	n.BytesSent.Add(uint64(m.Size))
	if n.Partitioned(e, c.dst) || (n.dropProb > 0 && n.chaosRnd.Float64() < n.dropProb) {
		n.Dropped.Inc()
		n.putMsg(m)
	} else {
		delay := n.Params.Propagation + n.extraDelay
		if !e.noDelay && m.Size < MSS {
			delay += n.Params.NagleDelay
		}
		m.to = c.dst
		n.K.AfterCall(delay, deliverMsg, m)
	}
	c.next()
}

// deliverMsg is the shared arrival callback: one pooled event record per
// in-flight message instead of one capturing closure each.
func deliverMsg(a any) {
	m := a.(*Message)
	m.to.enqueue(m.From, m)
}

// enqueue runs in kernel context: append to the per-connection receive
// queue, creating the connection's messenger process on first contact and
// waking an idle connection.
func (e *Endpoint) enqueue(from *Endpoint, m *Message) {
	if e.handler == nil {
		panic("netsim: message delivered to endpoint without handler: " + e.name)
	}
	c, ok := e.rx[from]
	if !ok {
		c = &rxConn{e: e, q: sim.NewQueue[*Message](e.net.K, e.name+"<-"+from.name, 0)}
		c.ingress.Done, c.ingress.Arg = rxCharge, c
		c.cpu.Done = rxFree
		e.rx[from] = c
		e.net.K.Go("msgr:"+e.name+"<-"+from.name, func(p *sim.Proc) {
			e.receiveLoop(p, c)
		})
	}
	c.q.TryPush(m) // unbounded queue: cannot fail
	if c.idle {
		c.idle = false
		e.net.K.AfterCall(0, rxNext, c)
	}
}

func rxNext(a any) { a.(*rxConn).next() }

// next starts the receive-side NIC serialization of the connection's next
// message (all endpoints sharing the NIC drain the wire at the configured
// bandwidth), or marks the connection idle.
func (c *rxConn) next() {
	m, ok := c.q.TryPop()
	if !ok {
		c.idle = true
		return
	}
	c.m = m
	e := c.e
	e.nic.ingress.UseCall(&c.ingress, sim.Time(m.Size*int64(sim.Second)/e.net.Params.BytesPerSec))
}

// rxCharge runs when a message is off the wire: it charges the per-message
// messenger CPU to the endpoint's node, which the receiver waits on.
func rxCharge(a any) {
	c := a.(*rxConn)
	e := c.e
	cpu := e.net.Params.MsgCPU
	if f := e.net.Params.ConnCPUFactor; f > 0 {
		cpu = sim.Time(float64(cpu) * (1 + f*float64(len(e.rx))/100))
	}
	e.node.UseCall(&c.cpu, cpu+e.node.AllocCost(e.net.Params.MsgAllocs))
}

// rxFree is the CPU charge's Done, which only a zero charge reaches.
func rxFree(any) {
	panic("netsim: a received message must cost CPU (MsgCPU or MsgAllocs > 0)")
}

// receiveLoop is the per-connection messenger process: it waits until a
// message's CPU charge is served, then dispatches it and starts the next.
func (e *Endpoint) receiveLoop(p *sim.Proc, c *rxConn) {
	c.next()
	for {
		c.cpu.Wait(p)
		m := c.m
		e.RxMsgs.Inc()
		e.net.Msgs.Inc()
		e.handler(p, m)
		e.net.putMsg(m)
		c.next()
	}
}

// Connections returns how many distinct peers have sent to this endpoint
// (== live messenger receiver threads).
func (e *Endpoint) Connections() int { return len(e.rx) }
