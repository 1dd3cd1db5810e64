package osd

import (
	"math/bits"

	"repro/internal/filestore"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// The read path. Every client read takes one path, whatever the pool:
// replication is the k = 1 code, whose one shard is the whole copy. The
// primary reads its own copy first (startRead). When one copy serves a
// read (DataShards() == 1) and that copy is clean, the primary replies at
// once. Otherwise it gathers: the local answer is folded in first, then
// the other up members of the acting set are asked for theirs, in
// canonical order, until k usable answers exist (the reply, with the
// decode CPU when a gathered shard is parity) or the candidates run out
// (EIO). The gather keeps one fetch in flight per usable answer still
// missing and launches a replacement for each unusable one, so a clean EC
// read costs exactly k shard reads and a damaged replicated copy walks the
// replicas one at a time.
//
// Corrupt data never reaches a client. A damaged answer is never usable;
// an absent one is (the stripe may predate the extent), unless the local
// copy was damaged: a damaged copy proves the extent exists, so a peer
// that lacks it missed the write and its answer is stale. A damaged local
// copy also counts a read-repair at detection and, once the client is
// served, queues an asynchronous overwrite from the first clean peer
// snapshot.
//
// MsgShardRead rides the holder's PG queue like a replication sub-op;
// MsgShardReadReply is handled in messenger context at the primary like a
// fast ack (a msgChain, see gatherStep). The client op stays parked on the
// primary holding its msgCap token until the reply (or the EIO) releases
// it. A holder that crashed before answering simply drops the fetch: the
// client recovers by timeout and retry against the new acting set.

// processRead services a client read on the primary under the PG lock:
// the read path (startRead) on the local copy, then the reply or the
// gather (readDone), in the worker's chain.
func (o *OSD) processRead(ch *msgChain, op *ClientOp) {
	o.metrics.ReadOps.Inc()
	ch.op = op
	ch.startRead(op.OID, op.Off, o.pol.ShardLen(op.Len), readDone)
}

// startRead runs the head of every read an op worker serves: the read's
// log, the op setup CPU, the generation check, readCPU, then the store
// read of size bytes of oid at off; then tail.
func (ch *msgChain) startRead(oid string, off, size int64, tail func(*msgChain)) {
	ch.rd.OID, ch.rd.Off, ch.rd.Size = oid, off, size
	ch.then = tail
	ch.logStep(siteRead, readLogged)
}

func readLogged(ch *msgChain) { ch.setUp(readSetUp) }

func readSetUp(ch *msgChain) {
	if ch.o.gen != ch.eng.gen {
		ch.end() // crashed during op setup: no answer, the client retries
		return
	}
	ch.charge(readCPU, readCharged)
}

func readCharged(ch *msgChain) { ch.read(ch.then) }

// readDone answers the read from the local copy once the ack's log is
// written, when that copy alone serves it; otherwise it starts the
// gather, after logging a damaged copy's read-repair.
func readDone(ch *msgChain) {
	o := ch.o
	switch {
	case o.gen != ch.eng.gen:
		ch.end() // crashed mid-read: no reply, the client retries
	case ch.rd.Damaged:
		o.metrics.ReadRepairs.Inc()
		ch.logStep(siteScrub, readRepairLogged)
	case o.pol.DataShards() == 1:
		ch.logStep(siteAck, readAcked)
	default:
		startGather(ch)
	}
}

func readAcked(ch *msgChain) {
	o, op := ch.o, ch.op
	rep := o.replies.Get()
	rep.Op, rep.Stamp, rep.Exists = op, ch.rd.Stamp, ch.rd.Exists
	o.ep.Send(nil, op.Client, op.Len+readReplyOverhead, MsgReply, rep)
	ch.eng.msgCap.Release(1)
	ch.end()
}

func readRepairLogged(ch *msgChain) {
	if o := ch.o; o.integrityNote != nil {
		o.integrityNote(ch.op.OID, NoteReadRepair)
	}
	startGather(ch)
}

// gather is the primary-side state of one in-flight read gather.
type gather struct {
	op   *ClientOp
	need int // usable answers still required (starts at k)
	next int // next acting-set slot to try
	out  int // launched, unanswered fetches

	usedMask uint64 // acting-set slots that answered usable
	stamp    uint64 // max stamp over existing usable answers
	exists   bool   // any usable answer had the extent

	// Heal state for a damaged local copy: the first clean peer snapshot.
	healState    filestore.ObjectState
	healOK       bool
	localDamaged bool

	done bool // served or EIOed; late answers are dropped
}

// startGather folds the local answer just read into a new gather and
// pumps its fetches.
func startGather(ch *msgChain) {
	o, op := ch.o, ch.op
	g := &gather{op: op, need: o.pol.DataShards()}
	ch.g = g
	ch.set, ch.self = o.acting(op.PG)
	if ch.rd.Damaged {
		g.localDamaged = true
	} else if ch.self >= 0 {
		g.recordUsable(ch.self, ch.rd.Stamp, ch.rd.Exists)
	}
	gatherStep(ch)
}

// recordUsable folds one usable answer into the gather.
func (g *gather) recordUsable(idx int, stamp uint64, exists bool) {
	g.need--
	g.usedMask |= 1 << uint(idx)
	if exists {
		g.exists = true
		if stamp > g.stamp {
			g.stamp = stamp
		}
	}
}

// nextLaunch advances the gather to its next fetch and returns the
// acting-set slot to ask, or -1 when none is due. Down members and this
// OSD's own slot (whose answer is already in) are never asked.
func (g *gather) nextLaunch(set []*netsim.Endpoint, self int) int {
	for !g.done && g.need > 0 && g.out < g.need && g.next < len(set) {
		idx := g.next
		g.next++
		if set[idx] == nil || idx == self {
			continue
		}
		g.out++
		return idx
	}
	return -1
}

// What a gather does once no launch is due (settle).
const (
	gatherWait       = iota // answers are outstanding, or the gather is over
	gatherReady             // k usable answers are in: serve the client
	gatherUnreadable        // fewer than k usable and none outstanding: EIO
)

// settle decides the gather's next step once no launch is due, marking it
// done when it serves or fails.
func (g *gather) settle() int {
	switch {
	case g.done:
		return gatherWait
	case g.need == 0:
		g.done = true
		return gatherReady
	case g.out == 0:
		// Every candidate answered or was down and fewer than k answers
		// are usable: the extent is unreadable right now.
		g.done = true
		return gatherUnreadable
	}
	return gatherWait
}

// gatherStep drives the gather over ch.set: it keeps `need` fetches in
// flight while untried candidates remain, charging repSendCPU for each,
// then settles the gather.
func gatherStep(ch *msgChain) {
	if idx := ch.g.nextLaunch(ch.set, ch.self); idx >= 0 {
		ch.idx = idx
		ch.charge(repSendCPU, shardSent)
		return
	}
	gatherSettle(ch)
}

func shardSent(ch *msgChain) {
	ch.o.sendShardRead(ch.eng, ch.g, ch.idx, ch.set[ch.idx])
	gatherStep(ch)
}

// gatherSettle serves the client from k usable answers, charging the
// decode CPU and the reply's log first, or fails the read; with answers
// still outstanding the chain just ends.
func gatherSettle(ch *msgChain) {
	g := ch.g
	switch g.settle() {
	case gatherReady:
		ch.charge(ch.o.decodeCost(g), gatherDecoded)
	case gatherUnreadable:
		ch.eio(g.op)
	default:
		ch.end()
	}
}

func gatherDecoded(ch *msgChain) { ch.logStep(siteAck, gatherLogged) }

func gatherLogged(ch *msgChain) {
	ch.o.gatherReply(ch.eng, ch.g)
	ch.end()
}

// sendShardRead asks the member at acting-set slot idx for its copy.
func (o *OSD) sendShardRead(eng *engine, g *gather, idx int, ep *netsim.Endpoint) {
	sr := &shardRead{op: g.op, primary: o.cep, gen: eng.gen, idx: idx, g: g, wantState: g.localDamaged}
	o.cep.Send(nil, ep, 200, MsgShardRead, sr)
}

// processShardRead serves a primary's gather fetch on a holder, under the
// PG lock: the read path (startRead), then the answer, in the worker's
// chain.
func (o *OSD) processShardRead(ch *msgChain, sr *shardRead) {
	o.metrics.RepReads.Inc()
	ch.sr = sr
	op := sr.op // read-only here: the op is primary-owned
	ch.startRead(op.OID, op.Off, o.pol.ShardLen(op.Len), shardReadDone)
}

// shardReadDone answers the primary. A clean copy (present or absent)
// answers ok, with a state snapshot when present and asked for — the
// payload for a damaged primary's heal; a damaged one reports unusable so
// the gather tries the next member. The snapshot adds nothing to the
// reply's wire size.
func shardReadDone(ch *msgChain) {
	o, sr := ch.o, ch.sr
	if o.gen != ch.eng.gen {
		ch.end() // crashed mid-read: the fetch dies with this daemon
		return
	}
	reply := &shardReadReply{sr: sr, stamp: ch.rd.Stamp, exists: ch.rd.Exists, ok: !ch.rd.Damaged}
	if reply.ok && reply.exists && sr.wantState {
		if state, ok := o.fs.ExportObject(sr.op.OID); ok {
			reply.state, reply.stateOK = state, true
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
	// A damaged copy never counts toward the k, and after a damaged local
	// copy neither does an absent one, which is stale.
	if srr.ok && (srr.exists || !g.localDamaged) {
		g.recordUsable(srr.sr.idx, srr.stamp, srr.exists)
		if srr.stateOK && !g.healOK {
			g.healState, g.healOK = srr.state, true
		}
	}
	ch := o.getChain(eng, m)
	ch.g = g
	ch.set, ch.self = o.acting(g.op.PG)
	gatherStep(ch)
}

// decodeCost is the reconstruction CPU of a served gather: zero unless
// the extent exists and a gathered shard is parity (the used set is not
// the canonical first-k data set); always zero under replication.
func (o *OSD) decodeCost(g *gather) sim.Time {
	k := o.pol.DataShards()
	dataMask := uint64(1)<<uint(k) - 1
	if !g.exists || g.usedMask&dataMask == dataMask {
		return 0
	}
	lost := k - bits.OnesCount64(g.usedMask&dataMask)
	return o.pol.DecodeCost(g.op.Len, lost)
}

// gatherReply sends the assembled read to the client, then queues the
// heal of a damaged local copy off the read path.
func (o *OSD) gatherReply(eng *engine, g *gather) {
	op := g.op
	oid := op.OID
	rep := o.replies.Get()
	rep.Op, rep.Stamp, rep.Exists = op, g.stamp, g.exists
	o.ep.Send(nil, op.Client, op.Len+readReplyOverhead, MsgReply, rep)
	eng.msgCap.Release(1)
	// The client is served; op must not be referenced past this point.
	if g.localDamaged && g.healOK {
		o.queueRepair(g.healState, oid)
	}
}

// eioReply sends the EIO once its log is written.
func (o *OSD) eioReply(eng *engine, op *ClientOp) {
	if o.integrityNote != nil {
		o.integrityNote(op.OID, NoteEIO)
	}
	rep := o.replies.Get()
	rep.Op, rep.EIO = op, true
	o.ep.Send(nil, op.Client, ackBytes, MsgReply, rep)
	eng.msgCap.Release(1)
}

// repair is the asynchronous overwrite of a damaged local copy from a
// peer's clean snapshot.
type repair struct {
	o   *OSD
	gen int
	in  filestore.Ingest // its State is the snapshot until the heal starts
}

// queueRepair starts a repair of oid at the current instant, in the slot
// where a heal thread spawned now would start, deduplicating concurrent
// repairs of the same object. The overwrite merges with (a cleansed export
// of) the live local state rather than replacing it, so a write that lands
// between the snapshot and the heal is never erased.
func (o *OSD) queueRepair(st filestore.ObjectState, oid string) {
	if o.repairing == nil {
		o.repairing = make(map[string]bool)
	}
	if o.repairing[oid] {
		return
	}
	o.repairing[oid] = true
	r := &repair{o: o, gen: o.gen}
	r.in = filestore.Ingest{Done: repairIngested, Arg: r, OID: oid, State: st}
	o.k.AfterCall(0, repairStart, r)
}

func repairStart(a any) {
	r := a.(*repair)
	o, oid := r.o, r.in.OID
	if o.gen != r.gen || o.crashed {
		delete(o.repairing, oid) // the daemon died before the heal ran
		return
	}
	target := r.in.State.Cleansed()
	if local, ok := o.fs.ExportObject(oid); ok {
		target = filestore.UnionState(local.Cleansed(), target)
	}
	r.in.State = target
	o.fs.IngestCall(&r.in)
}

// repairIngested books the heal, unless the daemon crashed mid-ingest.
func repairIngested(a any) {
	r := a.(*repair)
	o, oid := r.o, r.in.OID
	if o.gen == r.gen {
		o.metrics.RepairWrites.Inc()
		if o.integrityNote != nil {
			o.integrityNote(oid, NoteRepaired)
		}
	}
	delete(o.repairing, oid)
}
