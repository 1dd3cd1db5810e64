package osd

import (
	"math/bits"

	"repro/internal/filestore"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// EC read path. An erasure-coded pool cannot serve a read from one copy:
// the primary gathers k of the k+m shards — its own read inline, the rest
// over the cluster network — and reconstructs when the gathered set is not
// the canonical data set. The gather launches the first k up members in
// canonical order and pumps one replacement per damaged answer, so the
// happy path costs exactly k shard reads and the degraded path walks the
// acting set until k usable answers exist or the candidates run out (EIO).
//
// The protocol mirrors read-repair: MsgShardRead rides the holder's PG
// queue like a replication sub-op; MsgShardReadReply is handled in
// messenger context at the primary like a fast ack (a msgChain, see
// ecPumpStep). The client op stays parked on the primary holding its msgCap
// token until the assembled reply (or the EIO) releases it. A damaged or
// absent shard is never served: absence is a usable answer (the stripe may
// predate the extent), damage is not. A damaged local shard additionally
// queues the asynchronous heal from a clean peer snapshot, exactly like
// replicated read-repair.

// ecGather is the primary-side state of one in-flight shard gather.
type ecGather struct {
	op   *ClientOp
	need int // usable answers still required (starts at k)
	next int // next acting-set slot to try
	out  int // launched, unanswered shard reads

	usedMask uint64 // acting-set slots that answered usable
	stamp    uint64 // max stamp over existing usable answers
	exists   bool   // any usable answer had the extent

	// Heal state for a damaged local shard: the first clean peer snapshot.
	healState    filestore.ObjectState
	healOK       bool
	localDamaged bool

	done bool // served or EIOed; late answers are dropped
}

// recordUsable folds one usable (undamaged) shard answer into the gather.
func (g *ecGather) recordUsable(idx int, stamp uint64, exists bool) {
	g.need--
	g.usedMask |= 1 << uint(idx)
	if exists {
		g.exists = true
		if stamp > g.stamp {
			g.stamp = stamp
		}
	}
}

// processECRead services a read on an EC primary under the PG lock: the
// read's log, the op setup CPU, then the gather (ecPumpStep), in the
// worker's chain.
func (o *OSD) processECRead(ch *msgChain, op *ClientOp) {
	o.metrics.ReadOps.Inc()
	ch.op = op
	ch.logStep(siteRead, ecReadLogged)
}

func ecReadLogged(ch *msgChain) { ch.setUp(ecReadSetUp) }

func ecReadSetUp(ch *msgChain) {
	o, op := ch.o, ch.op
	if o.gen != ch.eng.gen {
		ch.end() // crashed during op setup; client retries
		return
	}
	ch.g = &ecGather{op: op, need: o.pol.DataShards()}
	ch.set = o.shardPlacer(op.PG)
	ecPumpStep(ch)
}

// nextLaunch advances the gather to its next launch and returns the
// acting-set slot to read, or -1 when none is due. Down members are never
// launched, never counted.
func (g *ecGather) nextLaunch(set []ShardTarget) int {
	for !g.done && g.need > 0 && g.out < g.need && g.next < len(set) {
		idx := g.next
		g.next++
		if t := set[idx]; t.EP == nil && !t.Self {
			continue
		}
		g.out++
		return idx
	}
	return -1
}

// What a gather does once no launch is due (settle).
const (
	ecWait       = iota // answers are outstanding, or the gather is over
	ecReady             // k usable answers are in: serve the client
	ecUnreadable        // fewer than k usable and none outstanding: EIO
)

// settle decides the gather's next step once no launch is due, marking it
// done when it serves or fails.
func (g *ecGather) settle() int {
	switch {
	case g.done:
		return ecWait
	case g.need == 0:
		g.done = true
		return ecReady
	case g.out == 0:
		// Every candidate answered or was down and fewer than k shards are
		// usable: the stripe is unreadable right now.
		g.done = true
		return ecUnreadable
	}
	return ecWait
}

// sendShardRead asks the member at acting-set slot idx for its shard.
func (o *OSD) sendShardRead(eng *engine, g *ecGather, idx int, ep *netsim.Endpoint) {
	sr := &shardRead{op: g.op, primary: o.cep, gen: eng.gen, idx: idx, g: g}
	o.cep.Send(nil, ep, 200, MsgShardRead, sr)
}

// processShardRead serves the primary's gather fetch on a shard holder,
// under the PG lock: the read path (startRead), then the answer, in the
// worker's chain.
func (o *OSD) processShardRead(ch *msgChain, sr *shardRead) {
	o.metrics.RepReads.Inc()
	ch.sr = sr
	op := sr.op // read-only here: the op is primary-owned
	ch.startRead(op.OID, op.Off, o.pol.ShardLen(op.Len), shardReadDone)
}

// shardReadDone answers the primary. A clean shard (present or absent)
// answers ok with a state snapshot when present — the payload for a
// damaged primary's heal; a damaged one reports unusable so the pump tries
// the next member.
func shardReadDone(ch *msgChain) {
	o, sr := ch.o, ch.sr
	if o.gen != ch.eng.gen {
		ch.end() // crashed mid-read: the fetch dies with this daemon
		return
	}
	op := sr.op
	reply := &shardReadReply{sr: sr, stamp: ch.rd.Stamp, exists: ch.rd.Exists}
	if !reply.exists || !o.fs.ExtentDamaged(op.OID, op.Off) {
		reply.ok = true
		if reply.exists {
			if state, ok := o.fs.ExportObject(op.OID); ok {
				reply.state, reply.stateOK = state, true
			}
		}
	}
	o.cep.Send(nil, sr.primary, ch.rd.Size+readReplyOverhead, MsgShardReadReply, reply)
	ch.end()
}

// handleShardReadReply folds a holder's answer into the gather at the
// primary (messenger context) and pumps the next step in a msgChain.
func (o *OSD) handleShardReadReply(eng *engine, m *netsim.Message, srr *shardReadReply) {
	g := srr.sr.g
	if g.done {
		return // already served or EIOed; late answer
	}
	g.out--
	if srr.ok {
		g.recordUsable(srr.sr.idx, srr.stamp, srr.exists)
		if srr.stateOK && !g.healOK {
			g.healState, g.healOK = srr.state, true
		}
	}
	ch := o.getChain(eng, m)
	ch.g, ch.set = g, o.shardPlacer(g.op.PG)
	ecPumpStep(ch)
}

// ecDecodeCost is the reconstruction CPU of a served gather: zero unless
// the extent exists and a gathered shard is parity (the used set is not
// the canonical first-k data set).
func (o *OSD) ecDecodeCost(g *ecGather) sim.Time {
	k := o.pol.DataShards()
	dataMask := uint64(1)<<uint(k) - 1
	if !g.exists || g.usedMask&dataMask == dataMask {
		return 0
	}
	lost := k - bits.OnesCount64(g.usedMask&dataMask)
	return o.pol.DecodeCost(g.op.Len, lost)
}

// ecReply sends the assembled read to the client, then queues the heal of
// a damaged local shard off the read path.
func (o *OSD) ecReply(eng *engine, g *ecGather) {
	op := g.op
	oid := op.OID
	rep := o.replies.Get()
	rep.Op, rep.Stamp, rep.Exists = op, g.stamp, g.exists
	o.ep.Send(nil, op.Client, op.Len+readReplyOverhead, MsgReply, rep)
	eng.msgCap.Release(1)
	// The client is served; op must not be referenced past this point.
	if g.localDamaged && g.healOK {
		o.metrics.ReadRepairs.Inc()
		if o.integrityNote != nil {
			o.integrityNote(oid, NoteReadRepair)
		}
		o.queueRepair(g.healState, oid)
	}
}
