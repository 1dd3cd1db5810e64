package cluster

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Heartbeat message kinds. They live on dedicated heartbeat endpoints with
// their own handlers, so the numbering is independent of the osd package's
// data-path kinds.
const (
	msgPing = 100 + iota
	msgPingAck
	msgFail
)

// A ping or an ack is the sender's OSD id, boxed once per OSD into
// hbState's payloads, so a heartbeat allocates nothing.
type hbPing int
type hbAck int
type hbFail struct{ reporter, target int }

// hbState is the failure-detection layer: per-OSD heartbeat endpoints on
// the cluster network, a monitor endpoint that collects failure reports,
// and each observer's last-heard timestamps for every peer. Enabled only
// when Params.HeartbeatInterval > 0; off, the cluster is bit-identical to
// one built without this subsystem.
type hbState struct {
	stopped   bool
	monEp     *netsim.Endpoint
	eps       []*netsim.Endpoint
	pings     []any // OSD i's ping payload, hbPing(i)
	acks      []any // OSD i's ack payload, hbAck(i)
	lastHeard [][]sim.Time
	// DownsDetected counts OSDs marked down by failure reports (vs
	// administrative FailOSD calls).
	DownsDetected stats.Counter
}

// startHeartbeats wires the detector. Pings flow OSD->OSD on the cluster
// NICs; failure reports flow to a monitor on node 0's public NIC. A crashed
// OSD neither pings nor acks, so after HeartbeatGrace of silence every
// surviving observer reports it and the monitor marks it down — no operator
// involved.
func (c *Cluster) startHeartbeats() {
	n := len(c.osds)
	hb := &hbState{
		eps:       make([]*netsim.Endpoint, n),
		pings:     make([]any, n),
		acks:      make([]any, n),
		lastHeard: make([][]sim.Time, n),
	}
	c.hb = hb
	hb.monEp = c.Net.NewEndpointNIC("mon.hb", c.nodes[0], c.pubNICs[0], true)
	hb.monEp.SetReceiver(func(m *netsim.Message) {
		if m.Kind != msgFail {
			return
		}
		f := m.Payload.(*hbFail)
		if c.osds[f.reporter].Crashed() {
			return // stale report from a daemon that has since died
		}
		if !c.down[f.target] {
			hb.DownsDetected.Inc()
			c.markOSDDown(f.target)
		}
	})
	for i := range c.osds {
		i := i
		node := c.nodes[i/c.Params.OSDsPerNode]
		nic := c.clusterNICs[i/c.Params.OSDsPerNode]
		hb.eps[i] = c.Net.NewEndpointNIC(fmt.Sprintf("osd%d.hb", i), node, nic, true)
		hb.eps[i].SetReceiver(func(m *netsim.Message) { c.hbHandle(i, m) })
		hb.pings[i], hb.acks[i] = hbPing(i), hbAck(i)
		hb.lastHeard[i] = make([]sim.Time, n)
	}
	for i := range c.osds {
		i := i
		c.K.Go(fmt.Sprintf("osd%d.hbloop", i), func(p *sim.Proc) { c.hbLoop(p, i) })
	}
}

// hbHandle is an OSD heartbeat endpoint's receiver (kernel context).
func (c *Cluster) hbHandle(me int, m *netsim.Message) {
	if c.osds[me].Crashed() {
		return // a dead daemon answers nothing
	}
	switch m.Kind {
	case msgPing:
		from := m.Payload.(hbPing)
		c.hb.eps[me].Send(nil, c.hb.eps[from], 64, msgPingAck, c.hb.acks[me])
	case msgPingAck:
		from := m.Payload.(hbAck)
		c.hb.lastHeard[me][from] = c.K.Now()
	}
}

// hbLoop is one OSD's observer process: ping all peers every interval and
// report any peer silent past the grace period.
func (c *Cluster) hbLoop(p *sim.Proc, me int) {
	hb := c.hb
	interval := c.Params.HeartbeatInterval
	grace := c.Params.HeartbeatGrace
	if grace <= 0 {
		grace = 4 * interval
	}
	for j := range hb.lastHeard[me] {
		hb.lastHeard[me][j] = p.Now()
	}
	for {
		p.Sleep(interval)
		if hb.stopped {
			return
		}
		if c.osds[me].Crashed() {
			// The daemon is down: no pings out, and its view went stale —
			// refresh it so a restarted daemon doesn't mass-report peers.
			now := p.Now()
			for j := range hb.lastHeard[me] {
				hb.lastHeard[me][j] = now
			}
			continue
		}
		for j := range c.osds {
			if j == me {
				continue
			}
			if c.down[j] {
				// Already marked down; don't re-report, and keep the
				// timestamp fresh for its return.
				hb.lastHeard[me][j] = p.Now()
				continue
			}
			hb.eps[me].Send(p, hb.eps[j], 64, msgPing, hb.pings[me])
			if p.Now()-hb.lastHeard[me][j] > grace {
				hb.eps[me].Send(p, hb.monEp, 128, msgFail, &hbFail{reporter: me, target: j})
			}
		}
	}
}

// hbNoteUp refreshes every observer's view of a recovered OSD so it is not
// instantly re-reported from stale timestamps.
func (c *Cluster) hbNoteUp(id int) {
	if c.hb == nil {
		return
	}
	now := c.K.Now()
	for i := range c.hb.lastHeard {
		c.hb.lastHeard[i][id] = now
	}
}

// StopHeartbeats shuts the detector down: observer processes exit at their
// next wakeup. Required before draining the kernel with Run(Forever), which
// otherwise never runs out of events. Safe to call when heartbeats are off.
func (c *Cluster) StopHeartbeats() {
	if c.hb != nil {
		c.hb.stopped = true
	}
}

// DownsDetected reports how many OSD failures the heartbeat monitor
// detected (zero when heartbeats are disabled).
func (c *Cluster) DownsDetected() uint64 {
	if c.hb == nil {
		return 0
	}
	return c.hb.DownsDetected.Value()
}
