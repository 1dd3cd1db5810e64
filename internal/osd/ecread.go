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

// processECRead services a read on an EC primary under the PG lock.
func (o *OSD) processECRead(p *sim.Proc, eng *engine, op *ClientOp) {
	o.metrics.ReadOps.Inc()
	c := &o.cfg.Costs
	o.logger.Log(p, siteRead, o.cfg.LogPerStage)
	o.node.UseWithAllocs(p, c.OpSetupCPU, c.OpSetupAllocs)
	if o.gen != eng.gen {
		return // crashed during op setup; client retries
	}
	g := &ecGather{op: op, need: o.pol.DataShards()}
	o.ecPumpSet(p, eng, g, o.shardPlacer(op.PG))
}

// ecPumpSet drives the gather over the acting set: it keeps `need` shard
// reads in flight while untried candidates remain, serves the client once
// k usable answers are in, and fails with EIO when the acting set is
// exhausted short of k. The primary worker runs it for the initial launch
// (local read inline), and p awaits the settle (ecSettle); each shard
// reply pumps in messenger context (ecPumpStep).
func (o *OSD) ecPumpSet(p *sim.Proc, eng *engine, g *ecGather, set []ShardTarget) {
	for idx := g.nextLaunch(set); idx >= 0; idx = g.nextLaunch(set) {
		if set[idx].Self {
			o.localShardRead(p, eng, g, idx)
		} else {
			o.node.Use(p, o.cfg.Costs.RepSendCPU)
			o.sendShardRead(eng, g, idx, set[idx].EP)
		}
	}
	ch := o.getChain(eng, nil, p)
	ch.g = g
	ecSettle(ch)
	p.Await()
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

// localShardRead reads this OSD's own shard inline (worker context, PG
// lock held). A damaged local shard is an unusable answer — the pump
// launches a replacement — and flags the asynchronous heal.
func (o *OSD) localShardRead(p *sim.Proc, eng *engine, g *ecGather, idx int) {
	c := &o.cfg.Costs
	o.node.Use(p, c.ReadCPU)
	op := g.op
	st, exists := o.store.Read(p, op.OID, op.Off, o.pol.ShardLen(op.Len))
	if o.gen != eng.gen {
		g.done = true // crashed mid-read: the gather dies with this daemon
		return
	}
	g.out--
	if exists && o.store.ExtentDamaged(op.OID, op.Off) {
		g.localDamaged = true
		return
	}
	g.recordUsable(idx, st, exists)
}

// processShardRead serves the primary's gather fetch on a shard holder,
// under the PG lock. A clean shard (present or absent) answers ok with a
// state snapshot when present — the payload for a damaged primary's heal;
// a damaged one reports unusable so the pump tries the next member.
func (o *OSD) processShardRead(p *sim.Proc, eng *engine, sr *shardRead) {
	o.metrics.RepReads.Inc()
	c := &o.cfg.Costs
	o.logger.Log(p, siteRead, o.cfg.LogPerStage)
	o.node.UseWithAllocs(p, c.OpSetupCPU, c.OpSetupAllocs)
	o.node.Use(p, c.ReadCPU)
	op := sr.op // read-only here: the op is primary-owned
	shardLen := o.pol.ShardLen(op.Len)
	st, exists := o.store.Read(p, op.OID, op.Off, shardLen)
	if o.gen != eng.gen {
		return // crashed mid-read: the fetch dies with this daemon
	}
	reply := &shardReadReply{sr: sr, stamp: st, exists: exists}
	if !exists || !o.store.ExtentDamaged(op.OID, op.Off) {
		reply.ok = true
		if exists {
			if state, ok := o.store.ExportObject(op.OID); ok {
				reply.state, reply.stateOK = state, true
			}
		}
	}
	o.cep.Send(p, sr.primary, shardLen+c.ReadReplyOverhead, MsgShardReadReply, reply)
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
	ch := o.getChain(eng, m, nil)
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
	rep := o.newReply()
	rep.Op, rep.Stamp, rep.Exists = op, g.stamp, g.exists
	o.ep.Send(nil, op.Client, op.Len+o.cfg.Costs.ReadReplyOverhead, MsgReply, rep)
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
