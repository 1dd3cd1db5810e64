package osd

import (
	"repro/internal/filestore"
	"repro/internal/netsim"
)

// Read-path integrity (read-repair). When processRead finds the local
// extent damaged, the primary never serves it: it asks its replicas — one
// at a time, in acting-set order — for a healthy copy, replies to the
// client from the first clean answer, and queues an asynchronous overwrite
// that heals the local copy. If every replica's copy is damaged too, the
// read fails with EIO; corrupt bytes never reach a client either way.
//
// The protocol mirrors replication: MsgRepRead rides the replica's PG queue
// like a replication sub-op; MsgRepReadReply is handled in messenger
// context at the primary like a fast ack (a msgChain). The stalled ClientOp
// stays parked on the primary throughout, holding its msgCap token until
// the substitute reply (or the EIO) releases it. A replica that crashed
// before answering simply drops the fetch — the client recovers by timeout
// and retry against the new acting set.

// startReadRepair begins the replica hunt for the read of ch.op, whose
// local copy is damaged: the hunt's log, then the first fetch.
func startReadRepair(ch *msgChain) {
	ch.o.metrics.ReadRepairs.Inc()
	ch.logStep(siteScrub, readRepairLogged)
}

func readRepairLogged(ch *msgChain) {
	o, op := ch.o, ch.op
	if o.integrityNote != nil {
		o.integrityNote(op.OID, NoteReadRepair)
	}
	ch.rr = &repRead{op: op, primary: o.cep, gen: ch.eng.gen}
	repReadStep(ch)
}

// repReadTarget takes the next untried replica for rr, or returns nil when
// none are left.
func (o *OSD) repReadTarget(rr *repRead) *netsim.Endpoint {
	reps := o.placer(rr.op.PG)
	if rr.tried >= len(reps) {
		return nil
	}
	rr.tried++
	return reps[rr.tried-1]
}

// processRepRead serves a peer primary's repair fetch on this replica,
// under the PG lock: the read path (startRead), then the answer, in the
// worker's chain.
func (o *OSD) processRepRead(ch *msgChain, rr *repRead) {
	o.metrics.RepReads.Inc()
	ch.rr = rr
	op := rr.op
	ch.startRead(op.OID, op.Off, op.Len, repReadDone)
}

// repReadDone answers the primary: a clean local copy is returned with a
// state snapshot (the payload for the primary's overwrite); a damaged or
// missing copy sends the hunt onward.
func repReadDone(ch *msgChain) {
	o, rr := ch.o, ch.rr
	if o.gen != ch.eng.gen {
		ch.end() // crashed mid-read: the fetch dies with this daemon
		return
	}
	op := rr.op
	reply := &repReadReply{rr: rr, stamp: ch.rd.Stamp, exists: ch.rd.Exists}
	if reply.exists && !o.fs.ExtentDamaged(op.OID, op.Off) {
		if state, ok := o.fs.ExportObject(op.OID); ok {
			reply.state, reply.ok = state, true
		}
	}
	o.cep.Send(nil, rr.primary, op.Len+readReplyOverhead, MsgRepReadReply, reply)
	ch.end()
}

// handleRepReadReply resumes the stalled client read at the primary
// (messenger context, in a msgChain): a clean replica copy answers the
// client and queues the local heal; a damaged one forwards the hunt to the
// next replica.
func (o *OSD) handleRepReadReply(eng *engine, m *netsim.Message, rrr *repReadReply) {
	ch := o.getChain(eng, m)
	ch.rr, ch.rrr = rrr.rr, rrr
	if !rrr.ok {
		repReadStep(ch)
		return
	}
	ch.charge(readCPU, repairRead)
}

// repairReply answers the client from a clean replica copy, then heals the
// local copy off the read path.
func (o *OSD) repairReply(eng *engine, rrr *repReadReply) {
	op := rrr.rr.op
	oid := op.OID
	rep := o.replies.Get()
	rep.Op, rep.Stamp, rep.Exists = op, rrr.stamp, rrr.exists
	o.ep.Send(nil, op.Client, op.Len+readReplyOverhead, MsgReply, rep)
	eng.msgCap.Release(1)
	// op must not be referenced past this point (the client may recycle it).
	o.queueRepair(rrr.state, oid)
}

// repair is the asynchronous overwrite of a damaged local copy from a
// replica's clean snapshot.
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
