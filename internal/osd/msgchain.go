package osd

import (
	"repro/internal/cpumodel"
	"repro/internal/filestore"
	"repro/internal/netsim"
	"repro/internal/oslog"
	"repro/internal/sim"
)

// msgChain runs an OSD step that must wait, in kernel callbacks; it is the
// one implementation of each step. A chain is either held by a message or
// continues a callback machine when it ends. handleMessage runs in kernel
// context (netsim.Receiver) and never blocks; where a SimpleMessenger
// thread would block — on the client-message throttle, on a CPU charge, on
// a Sync-mode log — the chain holds the message, so its connection stays
// stalled, as behind a blocked thread, until end releases it. The op
// workers, the completion worker, the finisher and the journal writer are
// callback machines themselves, and end continues the one that started
// the chain. Every charge is a
// cpumodel.UseCall or oslog.LogCall, every store read a
// filestore.ReadCall and the throttle wait a
// sim.Semaphore.AcquireCall, and the journal push a sim.Queue.PushCall,
// so each step runs in the event slot where a thread would resume, and
// the simulation is the same as with one.
//
// The chains, by message:
//   - MsgWrite/MsgRead: msgCap grant, then queue to the OP_WQ (intakeGranted).
//   - MsgRepCommit with OptFastAck: commitFastCPU, the commit bookkeeping,
//     then per ack ackCPU and the ack's log (fastAckCharged, ackStep).
//   - MsgShardReadReply: repSendCPU per fetch launched; then the decode
//     CPU and log of the reply, or the EIO's log (gatherStep,
//     gatherSettle).
//
// And by worker:
//   - a client write on the primary: the op's log, opSetupCPU,
//     pglogBuildCPU, the generation check and PG-log append, the encode
//     CPU, per replica repSendCPU and the sub-op send, the submit log, the
//     filestore throttle, the generation check, then the journal push
//     (processWrite, startWrite, writeLogBuilt, ...); a replica's sub-op
//     takes the same steps without the sends (processItem, repLogBuilt);
//   - a read: the read's log, opSetupCPU, the generation check, readCPU
//     and the store read (startRead), then the generation check and, when
//     one clean copy serves it, the ack's log and reply; otherwise a
//     damaged copy's read-repair log and the gather, the local answer
//     folded in first (processRead, readDone, startGather, gatherStep);
//     or the answer to a peer primary's fetch (processShardRead);
//   - a community replica commit: commitCPU with its allocations and the
//     commit log, then the commit bookkeeping and per ack ackCPU and the
//     ack's log (processItem, repCommitCharged, fastAckCharged, ackStep);
//   - the acks the journal writer's local commit releases (jwCharged);
//   - a completion: the AFCeph completion worker's deferredCPU, or the
//     community finisher's commitCPU with its allocations, then the
//     commit or applied log; then, for the finisher, the replica's commit
//     notification, the acks the commit releases or the entry's recycling
//     (complete, completionLogged).
type msgChain struct {
	o *OSD
	// The requests the chain makes, each continued by chainStep. They are
	// wired once and kept when the chain is recycled.
	work cpumodel.Work
	log  oslog.Call
	rd   filestore.ReadReq // the store read, whose result the next step reads
	chainRun
}

// chainRun is a chain's per-run state, cleared when the chain is recycled.
type chainRun struct {
	eng  *engine
	m    *netsim.Message // the message the chain holds, or nil
	done func(any)       // else run as done(arg) when the chain ends
	arg  any
	step func(*msgChain) // run when the request in flight completes

	op   *ClientOp // intake: the client op; ack and EIO: the op replied to
	rc   *repCommit
	acks ackRun
	g    *gather
	set  []*netsim.Endpoint // the acting set a write fans out to or a gather asks
	self int                // this OSD's slot in set
	idx  int
	sr   *shardRead      // a holder's fetch
	then func(*msgChain) // run when a read's store read or a write's set-up completes
	rop  *repOp          // a replica's sub-op
	e    *jEntry         // the write's journal entry until pushed, or a finisher completion's
	site int             // a completion's log site
}

// getChain starts a chain held by m (it calls m.Hold).
func (o *OSD) getChain(eng *engine, m *netsim.Message) *msgChain {
	ch := o.newChain(eng)
	ch.m = m
	m.Hold()
	return ch
}

// callChain starts a chain that ends by running done(arg).
func (o *OSD) callChain(eng *engine, done func(any), arg any) *msgChain {
	ch := o.newChain(eng)
	ch.done, ch.arg = done, arg
	return ch
}

func (o *OSD) newChain(eng *engine) *msgChain {
	ch := o.chFree.Get()
	if ch.o == nil { // a new chain: wire it once
		ch.o = o
		ch.work.Done, ch.work.Arg = chainStep, ch
		ch.log.Done, ch.log.Arg = chainStep, ch
		ch.rd.Done, ch.rd.Arg = chainStep, ch
	}
	ch.eng = eng
	return ch
}

// end recycles the chain, then releases its message, so the connection
// moves on to its next message at once as the messenger thread did on
// return, or continues what awaits it.
func (ch *msgChain) end() {
	m, done, arg := ch.m, ch.done, ch.arg
	ch.free()
	if m != nil {
		m.Release()
	} else {
		done(arg)
	}
}

// free recycles the chain.
func (ch *msgChain) free() {
	ch.chainRun = chainRun{}
	ch.o.chFree.Put(ch)
}

// charge occupies a core for d on the chain's behalf, then runs step.
func (ch *msgChain) charge(d sim.Time, step func(*msgChain)) {
	ch.step = step
	ch.o.node.UseCall(&ch.work, d)
}

// logStep emits the per-stage log entries of site, then runs step.
func (ch *msgChain) logStep(site int, step func(*msgChain)) {
	ch.step = step
	ch.o.logger.LogCall(&ch.log, site, logPerStage)
}

// setUp charges the op setup CPU, with its allocations priced now, then
// runs step.
func (ch *msgChain) setUp(step func(*msgChain)) {
	ch.charge(opSetupCPU+ch.o.node.AllocCost(opSetupAllocs), step)
}

// read reads the extent set in ch.rd from the store, then runs step.
func (ch *msgChain) read(step func(*msgChain)) {
	ch.step = step
	ch.o.fs.ReadCall(&ch.rd)
}

func chainStep(a any) {
	ch := a.(*msgChain)
	ch.step(ch)
}

// intakeGranted queues a client op once it holds a msgCap token.
func intakeGranted(a any) {
	ch := a.(*msgChain)
	o, eng, cop := ch.o, ch.eng, ch.op
	if o.gen == eng.gen { // else crashed while throttled
		cop.tr.Stamp(StageQueued, o.k.Now())
		o.enqueue(eng, workItem{cop: cop})
	}
	ch.end()
}

// fastAckCharged records a replica commit once commitFastCPU is paid and
// sends the acks it releases.
func fastAckCharged(ch *msgChain) {
	o, op := ch.o, ch.rc.parent
	if o.commitsDone(op, true) {
		o.startAcks(&ch.acks, op)
	}
	ackStep(ch)
}

// ackStep sends the chain's next ack, unless its op was already acked,
// charging ackCPU and the ack's log first; with none left, the chain ends.
func ackStep(ch *msgChain) {
	o := ch.o
	for {
		op := o.nextAck(&ch.acks)
		if op == nil {
			if ch.rc != nil {
				*ch.rc = repCommit{}
				o.rcFree.Put(ch.rc)
			}
			ch.end()
			return
		}
		if !op.acked {
			op.acked = true
			ch.op = op
			ch.charge(ackCPU, ackCharged)
			return
		}
	}
}

func ackCharged(ch *msgChain) { ch.logStep(siteAck, ackLogged) }

func ackLogged(ch *msgChain) {
	ch.o.finishAck(ch.op)
	ackStep(ch)
}

// eio fails op's read once its log is written, and ends the chain: too few
// usable copies of the extent exist, so no honest data exists to return.
func (ch *msgChain) eio(op *ClientOp) {
	ch.o.metrics.EIOs.Inc()
	ch.op = op
	ch.logStep(siteAck, eioLogged)
}

func eioLogged(ch *msgChain) {
	ch.o.eioReply(ch.eng, ch.op)
	ch.end()
}
