package osd

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/device"
	"repro/internal/filestore"
	"repro/internal/journal"
	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/oslog"
	"repro/internal/redundancy"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
)

// Log call sites (for the oslog cache).
const (
	siteOpEnter = iota
	siteSubmit
	siteCommit
	siteApplied
	siteAck
	siteRead
	siteScrub
)

// completion is a journal commit or filestore apply queued for the
// completion pool: the AFCeph completion worker, or the community
// finisher, which alone needs the entry.
type completion struct {
	site int // siteCommit or siteApplied
	e    *jEntry
}

type stagedItem struct {
	it workItem
	at sim.Time
}

// Metrics aggregates OSD-level operation counts.
type Metrics struct {
	WriteOps stats.Counter
	ReadOps  stats.Counter
	RepOps   stats.Counter
	AcksSent stats.Counter
	// Crashes counts injected daemon crashes; JournalReplays counts
	// journaled-but-unapplied transactions replayed into the filestore on
	// restart.
	Crashes        stats.Counter
	JournalReplays stats.Counter
	// Read-path integrity: ReadRepairs counts client reads that hit a
	// damaged local extent and were redirected to a replica; RepReads
	// counts repair fetches served for a peer; RepairWrites counts
	// asynchronous overwrites that healed a damaged local copy; EIOs
	// counts reads failed because no healthy replica existed.
	ReadRepairs  stats.Counter
	RepReads     stats.Counter
	RepairWrites stats.Counter
	EIOs         stats.Counter
	// Admission control: AdmitRejected counts tenanted client ops refused
	// at the messenger by the per-tenant token bucket (the matching accepts
	// are WriteOps/ReadOps; core.Admission keeps its own decision pair).
	AdmitRejected stats.Counter
}

// Integrity-event kinds reported through the note hook (SetIntegrityNote).
const (
	// NoteReadRepair: a client read detected a damaged local extent.
	NoteReadRepair = iota
	// NoteRepaired: the asynchronous overwrite healed the local copy.
	NoteRepaired
	// NoteEIO: a read failed because every replica copy was damaged.
	NoteEIO
)

// engine is the per-process-generation half of an OSD: everything that dies
// with the daemon on a crash and is rebuilt on restart. Durable state (the
// filestore, the PG logs up to the durable horizon, the retained journal
// image) lives on the OSD itself. Workers capture the engine they were
// started with; a generation mismatch against the OSD tells a worker its
// daemon instance is gone and it must stop touching shared state.
type engine struct {
	gen int

	locks *core.ShardLocks
	opwq  *core.Pool[workItem]
	comp  *core.Pool[completion] // completion worker or finisher

	msgCap     *sim.Semaphore
	fsThrottle *sim.Semaphore

	journalQ *sim.Queue[*jEntry]
	fsQ      *sim.Queue[*jEntry]
	stageQ   *sim.Queue[stagedItem]
}

// OSD is one object storage daemon.
type OSD struct {
	k    *sim.Kernel
	cfg  Config
	node *cpumodel.Node
	ep   *netsim.Endpoint // public network (clients)
	cep  *netsim.Endpoint // cluster network (replication); may equal ep

	fs         *filestore.FileStore
	journalDev device.Device
	logger     *oslog.Logger

	// store is the object-store backend behind the OSD↔store seam; it
	// owns the write-ahead state (journal ring or KV WAL) and the
	// crash-replay image. metaAtCommit caches store.MetaAtCommit().
	store        store.Backend
	metaAtCommit bool

	// eng is the live daemon instance; gen counts restarts. crashed gates
	// the message handlers while the daemon is down; dirty marks a restart
	// after a crash (recovery must backfill rather than trust PG logs).
	eng     *engine
	gen     int
	crashed bool
	dirty   bool

	placer func(pg uint32) []*netsim.Endpoint

	// pol is the pool's redundancy policy; the default (installed at
	// construction, replaced via SetPolicy) reproduces the pre-seam
	// replicated behaviour exactly. shardPlacer maps a PG to its full EC
	// acting set in canonical order (including this OSD, marked Self);
	// installed only for EC pools.
	pol         redundancy.Policy
	shardPlacer func(pg uint32) []ShardTarget

	// integrityNote reports damage events (read-repair, heal, EIO) to the
	// cluster's integrity log; nil when nobody listens. repairing dedups
	// concurrent read-repairs of the same object.
	integrityNote func(oid string, kind int)
	repairing     map[string]bool

	// adm is the per-tenant admission-control enforcement point; nil unless
	// Config.Admission lists tenants. It lives on the OSD (not the engine)
	// so bucket state survives crash/restart like any throttle setting.
	adm *core.Admission

	// pgs is the per-PG state, indexed by PG id (see pg).
	pgs     []*pgState
	logSeq  uint64
	opCount uint64

	traces  *TraceCollector
	metrics Metrics
	// JournalQDelay records time entries wait between journal submission
	// and the journal writer picking them up. ApplyDelay records journal
	// submission to filestore apply completion (the post-ack KV work).
	// CompletionQDelay records how long commit/applied notifications queue
	// before their completion context (worker or finisher) runs them.
	JournalQDelay    *stats.Histogram
	ApplyDelay       *stats.Histogram
	CompletionQDelay *stats.Histogram

	// Free lists for hot-path records (see pool.go) and transaction-key
	// scratch. The kvstore retains key strings, so keys are built fresh per
	// transaction; the per-oid omap key is immutable and therefore cached.
	jeFree   []*jEntry
	ropFree  []*repOp
	rcFree   []*repCommit
	chFree   []*msgChain
	trFree   []*Trace
	txFree   []*filestore.Transaction
	replies  *ReplyPool
	keyBuf   []byte
	pglogVal []byte
	omapVal  []byte
	omapKeys map[string]string
}

// NewSplit builds an OSD with separate public (client) and cluster
// (replication) endpoints — the paper's testbed separates the two 10 GbE
// networks for Ceph (Figure 8), so sequential client traffic and replica
// traffic do not share a wire.
func NewSplit(k *sim.Kernel, cfg Config, node *cpumodel.Node, ep, cep *netsim.Endpoint,
	dataDev device.Device, journalDev device.Device, r *rng.Rand) *OSD {

	if cfg.Backend == store.BackendDirectStore {
		// The direct backend owns data placement and commits metadata in
		// one KV batch; only the light-weight transaction cost model
		// (minimized syscalls, batched KV, write-through metadata cache)
		// matches that design, so it is forced regardless of profile.
		cfg.FStore.LightTx = true
		cfg.FStore.ApplyWriteback = false
	}
	name := fmt.Sprintf("osd%d", cfg.ID)
	o := &OSD{
		k:                k,
		cfg:              cfg,
		node:             node,
		ep:               ep,
		cep:              cep,
		journalDev:       journalDev,
		pol:              redundancy.Replicated{},
		traces:           NewTraceCollector(cfg.TraceSample > 0),
		JournalQDelay:    stats.NewHistogram(),
		ApplyDelay:       stats.NewHistogram(),
		CompletionQDelay: stats.NewHistogram(),
		omapKeys:         make(map[string]string),
	}
	db := kvstore.New(k, name+".kv", dataDev, node, kvstore.DefaultParams())
	o.fs = filestore.New(k, name+".fs", dataDev, db, node, cfg.FStore, r)
	o.logger = oslog.New(k, name, node, cfg.LogMode)
	switch cfg.Backend {
	case "", store.BackendFileStore:
		o.store = store.NewFileStoreBackend(k, o.fs, journalDev, cfg.JournalSize)
	case store.BackendDirectStore:
		o.store = store.NewDirectStore(k, o.fs, node)
	default:
		panic("osd: unknown backend " + cfg.Backend)
	}
	o.metaAtCommit = o.store.MetaAtCommit()
	if cfg.Admission.Enabled() {
		o.adm = core.NewAdmission(cfg.Admission, k.Now())
	}

	ep.SetReceiver(o.handleMessage)
	if cep != ep {
		cep.SetReceiver(o.handleMessage)
	}
	o.buildEngine()
	o.startWorkers()
	return o
}

// buildEngine creates a fresh daemon instance: queues, throttles, locks,
// worker pools and the backend's per-generation write-ahead state. Called
// at construction and again at Restart; the previous engine (if any) is
// simply abandoned — the callbacks of old-generation workers waiting on
// its queues are never run, and generate no events.
func (o *OSD) buildEngine() {
	k, cfg := o.k, o.cfg
	name := fmt.Sprintf("osd%d.g%d", cfg.ID, o.gen)
	eng := &engine{gen: o.gen}
	o.store.Reopen(name)
	eng.locks = core.NewShardLocks(k, name)
	eng.opwq = core.NewPool(k, name+".opwq", eng.locks, 1, cfg.OptPendingQueue,
		func(_ int, it workItem, done func(any), arg any) { o.processItem(eng, it, done, arg) })
	eng.opwq.QueueDelay = stats.NewHistogram()
	eng.msgCap = sim.NewSemaphore(k, name+".msgcap", cfg.Throttles.OSDClientMessageCap)
	eng.fsThrottle = sim.NewSemaphore(k, name+".fsq", cfg.Throttles.FilestoreQueueMaxOps)
	eng.journalQ = sim.NewQueue[*jEntry](k, name+".jq", cfg.journalQueueCap)
	eng.fsQ = sim.NewQueue[*jEntry](k, name+".fsq", 0)
	batch := 1 // the community finisher
	if cfg.OptCompletionWorker {
		batch = 64
	}
	eng.comp = core.NewPool(k, name+".comp", eng.locks, batch, false,
		func(_ int, c completion, done func(any), arg any) { o.complete(eng, c, done, arg) })
	eng.comp.QueueDelay = o.CompletionQDelay
	if !cfg.OptCompletionWorker {
		eng.comp.Stopped = func() bool { return o.gen != eng.gen }
	}
	if cfg.WakeupBatch > 1 {
		eng.stageQ = sim.NewQueue[stagedItem](k, name+".stage", 0)
	}
	o.eng = eng
}

// startWorkers starts the workers of the current engine, all callback
// machines, each with an AfterCall(0) in the slot where its thread would
// start: the op workers, the journal writer, the filestore workers, the
// completion worker or finisher, and the batcher.
func (o *OSD) startWorkers() {
	eng := o.eng
	eng.opwq.Start(numOpWorkers)
	o.k.AfterCall(0, jwNext, &journalWriter{o: o, eng: eng})
	for i := 0; i < o.cfg.NumFilestoreWorkers; i++ {
		o.k.AfterCall(0, fswNext, &fsWorker{o: o, eng: eng})
	}
	eng.comp.Start(1)
	if eng.stageQ != nil {
		o.k.AfterCall(0, batcherRun, &batcher{o: o, eng: eng})
	}
}

// SetPlacer installs the function mapping a PG to its replica endpoints
// (excluding this OSD, which is the primary for PGs it receives writes on).
func (o *OSD) SetPlacer(f func(pg uint32) []*netsim.Endpoint) { o.placer = f }

// ShardTarget is one member of an EC acting set, in canonical (CRUSH)
// order. EP is nil while the member is down; Self marks this OSD's own
// slot (its shard is read locally, not over the wire).
type ShardTarget struct {
	EP   *netsim.Endpoint
	Self bool
}

// SetPolicy installs the pool's redundancy policy. The construction-time
// default is plain replication, which keeps every pre-seam configuration
// bit-identical; the cluster overrides it before traffic starts.
func (o *OSD) SetPolicy(pol redundancy.Policy) { o.pol = pol }

// SetShardPlacer installs the function mapping a PG to its full EC acting
// set (canonical order, Self-marked, nil EP for down members). Required
// before any read arrives on an EC pool; unused under replication.
func (o *OSD) SetShardPlacer(f func(pg uint32) []ShardTarget) { o.shardPlacer = f }

// SetIntegrityNote installs the cluster's integrity-event listener; fn is
// called (from a process or kernel context) on read-repair, heal and EIO
// events, and must not block.
func (o *OSD) SetIntegrityNote(fn func(oid string, kind int)) { o.integrityNote = fn }

// LogScrub charges one scrub-site debug-log line (the scrub trace site);
// called by the cluster scrub scheduler per scrubbed object.
func (o *OSD) LogScrub(p *sim.Proc) { o.logger.Log(p, siteScrub, logPerStage) }

// Endpoint returns the OSD's public (client-facing) network identity.
func (o *OSD) Endpoint() *netsim.Endpoint { return o.ep }

// ClusterEndpoint returns the replication-network identity (equals
// Endpoint when the networks are not separated).
func (o *OSD) ClusterEndpoint() *netsim.Endpoint { return o.cep }

// FileStore exposes the object table both backends share: reads, scrub,
// recovery, repair and fault injection go through it.
func (o *OSD) FileStore() *filestore.FileStore { return o.fs }

// Store exposes the write-ahead backend (pending and stall statistics).
func (o *OSD) Store() store.Backend { return o.store }

// Journal exposes the write-ahead journal ring (of the current generation)
// when the filestore backend is active; nil for backends without a ring.
func (o *OSD) Journal() *journal.Journal { //afvet:allow unused cluster/cluster_test.go checks each OSD's journal ring through it
	if b, ok := o.store.(*store.FileStoreBackend); ok {
		return b.Journal()
	}
	return nil
}

// Locks exposes the PG lock table (contention stats).
func (o *OSD) Locks() *core.ShardLocks { return o.eng.locks }

// OpWQ exposes the OP_WQ.
func (o *OSD) OpWQ() *core.Pool[workItem] { return o.eng.opwq }

// Metrics returns operation counters.
func (o *OSD) Metrics() *Metrics { return &o.metrics }

// Traces returns the stage-trace collector.
func (o *OSD) Traces() *TraceCollector { return o.traces }

// FsThrottle exposes the filestore throttle (for fluctuation analysis).
func (o *OSD) FsThrottle() *sim.Semaphore { return o.eng.fsThrottle }

// Config returns the active configuration.
func (o *OSD) Config() Config { return o.cfg } //afvet:allow unused cluster/cluster_test.go checks the configuration each OSD received through it

// Admission exposes the per-tenant admission enforcement point; nil when
// Config.Admission lists no tenants.
func (o *OSD) Admission() *core.Admission { return o.adm }

// handleMessage is the messenger dispatch, a netsim.Receiver: it runs in
// kernel context when the message's messenger CPU charge is served. Work
// that must wait — the client-message throttle, the fast ack's CPU and log
// charges, the read-repair and EC-gather replies — continues in a msgChain
// that holds the message, stalling its connection as a blocked
// SimpleMessenger thread would (see msgchain.go).
func (o *OSD) handleMessage(m *netsim.Message) {
	if o.crashed {
		// The daemon is down: the connection is effectively reset and the
		// message vanishes. Clients recover via timeout and retry.
		return
	}
	eng := o.eng
	now := o.k.Now()
	switch m.Kind {
	case MsgWrite, MsgRead:
		cop := m.Payload.(*ClientOp)
		if o.adm != nil && cop.Tenant != "" && !o.adm.Admit(now, cop.Tenant) {
			// Over-limit tenant: refuse in messenger context, before the op
			// costs a msgCap token, a trace, or a PG-queue slot. The reply is
			// the cheap ack-sized frame; the client surfaces the rejection
			// instead of retrying.
			o.metrics.AdmitRejected.Inc()
			rep := o.newReply()
			rep.Op, rep.Rejected = cop, true
			o.ep.Send(nil, cop.Client, ackBytes, MsgReply, rep)
			return
		}
		cop.received = now
		if o.cfg.TraceSample > 0 && cop.Kind == OpWrite {
			o.opCount++
			if o.opCount%uint64(o.cfg.TraceSample) == 0 {
				cop.tr = o.getTrace()
				cop.tr.Stamp(StageReceived, now)
			}
		}
		// osd_client_message_cap: stalls this connection when the OSD has
		// too many client messages in flight.
		ch := o.getChain(eng, m)
		ch.op = cop
		if eng.msgCap.AcquireCall(1, intakeGranted, ch) {
			intakeGranted(ch)
		}
	case MsgRepOp:
		rop := m.Payload.(*repOp)
		rop.parent.tr.Stamp(StageRepReceived, now)
		// Record the highest primary-assigned sequence seen, even before the
		// dispatcher processes it: recovery peering consults this horizon so
		// a new acting primary can never re-assign a sequence that is still
		// sitting in a peer's queue.
		st := o.pg(rop.pg)
		st.seen = max(st.seen, rop.seq)
		o.enqueue(eng, workItem{rop: rop})
	case MsgRepRead:
		// Repair fetch from a peer's primary: rides the PG queue like a
		// replication sub-op (no client-message throttle).
		o.enqueue(eng, workItem{rr: m.Payload.(*repRead)})
	case MsgShardRead:
		// EC gather fetch from the primary: rides the PG queue like a
		// replication sub-op (no client-message throttle).
		o.enqueue(eng, workItem{sr: m.Payload.(*shardRead)})
	case MsgShardReadReply:
		srr := m.Payload.(*shardReadReply)
		if srr.sr.gen != o.gen {
			return // gather started before a crash; the client retries
		}
		// Handled in messenger context like a fast ack: the client op is
		// still parked on the primary holding its msgCap token.
		o.handleShardReadReply(eng, m, srr)
	case MsgRepReadReply:
		rrr := m.Payload.(*repReadReply)
		if rrr.rr.gen != o.gen {
			return // repair started before a crash; the client retries
		}
		// Like the fast ack: handled in messenger context. The client op is
		// still parked on the primary (its read never replied), so serving
		// it here re-uses the msgCap token acquired at arrival.
		o.handleRepReadReply(eng, m, rrr)
	case MsgRepCommit:
		rc := m.Payload.(*repCommit)
		if rc.parent.gen != o.gen {
			return // commit for an op accepted before a crash
		}
		if o.cfg.OptFastAck {
			// §3.1: process the ack right away in messenger context
			// instead of pushing it through the PG queue.
			ch := o.getChain(eng, m)
			ch.rc = rc
			ch.charge(commitFastCPU, fastAckCharged)
		} else {
			// Community: acks share the data path and its PG locking.
			o.enqueue(eng, workItem{rc: rc})
		}
	default:
		panic("osd: unknown message kind")
	}
}

// enqueue routes an item into the OP_WQ, via the batching stage when the
// community wakeup-batch behaviour is configured. Both queues are
// unbounded, so enqueue never blocks.
func (o *OSD) enqueue(eng *engine, it workItem) {
	if eng.stageQ != nil {
		eng.stageQ.TryPush(stagedItem{it: it, at: o.k.Now()})
		return
	}
	eng.opwq.Submit(int(o.itemPG(it)), it)
}

func (o *OSD) itemPG(it workItem) uint32 {
	switch {
	case it.cop != nil:
		return it.cop.PG
	case it.rop != nil:
		return it.rop.pg
	case it.rc != nil:
		return it.rc.parent.PG
	case it.rr != nil:
		return it.rr.op.PG
	case it.sr != nil:
		return it.sr.op.PG
	}
	panic("osd: empty work item")
}

// batcher implements the HDD-era batching wakeup as a callback machine:
// ops wait until WakeupBatch peers have queued or the oldest has waited
// wakeupTimeout, polling the stage queue as the thread slept.
type batcher struct {
	o        *OSD
	eng      *engine
	batch    []stagedItem // reused across batches
	deadline sim.Time
}

// batcherRun fills the batch until it is full or due, or waits for its
// first item or the next poll; the batcher stops once its daemon instance
// has crashed.
func batcherRun(a any) {
	const poll = 200 * sim.Microsecond
	b := a.(*batcher)
	o, eng := b.o, b.eng
	for {
		if len(b.batch) == 0 {
			first, ok := eng.stageQ.PopCall(batcherRun, b)
			if !ok || o.gen != eng.gen {
				return
			}
			b.batch = append(b.batch, first)
			b.deadline = first.at + wakeupTimeout
		}
		for len(b.batch) < o.cfg.WakeupBatch {
			if v, ok := eng.stageQ.TryPop(); ok {
				b.batch = append(b.batch, v)
				continue
			}
			now := o.k.Now()
			if now >= b.deadline {
				break
			}
			o.k.AfterCall(min(b.deadline-now, poll), batcherRun, b)
			return
		}
		if o.gen != eng.gen {
			return
		}
		for _, s := range b.batch {
			eng.opwq.Submit(int(o.itemPG(s.it)), s.it)
		}
		b.batch = b.batch[:0]
	}
}

// processItem runs in an OP_WQ worker with the PG lock held, in a msgChain
// that ends by running done(arg).
func (o *OSD) processItem(eng *engine, it workItem, done func(any), arg any) {
	if o.gen != eng.gen || it.rc != nil && it.rc.parent.gen != o.gen {
		done(arg) // this daemon instance crashed; drop queued work
		return
	}
	ch := o.callChain(eng, done, arg)
	switch {
	case it.cop != nil && it.cop.Kind == OpWrite:
		o.processWrite(ch, it.cop)
	case it.cop != nil:
		o.processRead(ch, it.cop)
	case it.rop != nil:
		// The replica write path.
		o.metrics.RepOps.Inc()
		ch.rop = it.rop
		ch.startWrite(repLogBuilt)
	case it.rr != nil:
		o.processRepRead(ch, it.rr)
	case it.sr != nil:
		o.processShardRead(ch, it.sr)
	case it.rc != nil:
		// Community ack processing: full completion cost under the PG
		// lock, then the commit bookkeeping and the acks it releases.
		ch.rc = it.rc
		ch.charge(commitCPU+o.node.AllocCost(commitAllocs), repCommitCharged)
	}
}

func repCommitCharged(ch *msgChain) { ch.logStep(siteCommit, fastAckCharged) }

// processWrite is the primary write path, steps (1)-(3) of Figure 2(b),
// in the worker's chain.
func (o *OSD) processWrite(ch *msgChain, op *ClientOp) {
	op.tr.Stamp(StageDequeued, o.k.Now())
	o.metrics.WriteOps.Inc()
	ch.op = op
	ch.startWrite(writeLogBuilt)
}

// startWrite runs the head of every write an op worker serves, on the
// primary or a replica: the op's log, opSetupCPU, then pglogBuildCPU with
// its allocations priced at that charge; then step.
func (ch *msgChain) startWrite(step func(*msgChain)) {
	ch.then = step
	ch.logStep(siteOpEnter, writeLogged)
}

func writeLogged(ch *msgChain) { ch.setUp(writeSetUp) }

func writeSetUp(ch *msgChain) {
	ch.charge(pglogBuildCPU+ch.o.node.AllocCost(pglogBuildAllocs), ch.then)
}

// writeLogBuilt assigns the write its PG sequence and logs it, then
// charges the parity encode.
func writeLogBuilt(ch *msgChain) {
	o, eng, op := ch.o, ch.eng, ch.op
	if o.gen != eng.gen {
		ch.end() // crashed during op setup: nothing assigned yet
		return
	}
	op.gen = eng.gen
	st := o.pg(op.PG)
	st.seq++
	op.seq = st.seq
	if head := o.PGLogHead(op.PG); op.seq > head+1 {
		// The assignment counter was floored past this member's own log
		// (peering learned of sequences assigned by a previous acting
		// primary that never reached it). Adopt past the hole so the local
		// log stays contiguous and the ordered-ack cursor cannot wedge on
		// sequences this member will never see.
		o.AdoptPGState(op.PG, op.seq-1)
	}
	o.appendPGLog(op.PG, PGLogEntry{Seq: op.seq, OID: op.OID, Stamp: op.Stamp})

	// Replication sub-ops (splay: client acked only after all journals).
	// Under an EC policy the same fan-out ships shard-sized fragments
	// (ceil(len/k) bytes each) and the primary pays the parity-encode CPU
	// first; under replication ShardLen is the identity and EncodeCost is
	// zero, so this chain is step-for-step the pre-seam path.
	ch.charge(o.pol.EncodeCost(op.Len), writeEncoded)
}

func writeEncoded(ch *msgChain) {
	ch.reps = ch.o.placer(ch.op.PG)
	ch.op.waitCommits = len(ch.reps)
	writeRepStep(ch)
}

// writeRepStep sends the next replica its sub-op, charging repSendCPU
// first; with none left, it logs the submit.
func writeRepStep(ch *msgChain) {
	if ch.idx < len(ch.reps) {
		ch.charge(repSendCPU, writeRepCharged)
		return
	}
	ch.logStep(siteSubmit, writeSubmitLogged)
}

func writeRepCharged(ch *msgChain) {
	o, op := ch.o, ch.op
	r := ch.reps[ch.idx]
	ch.idx++
	shardLen := o.pol.ShardLen(op.Len)
	rop := o.getRepOp()
	rop.oid, rop.pg, rop.off, rop.length = op.OID, op.PG, op.Off, shardLen
	rop.stamp, rop.seq, rop.parent, rop.primary = op.Stamp, op.seq, op, o.cep
	o.cep.Send(nil, r, shardLen+repMsgOverhead, MsgRepOp, rop)
	writeRepStep(ch)
}

// writeSubmitLogged takes a filestore_queue_max_ops token: it is held from
// journal submission until the filestore has applied the transaction.
// With the HDD-sized default this wait happens *while the PG lock is
// held* — the §2.4 backup the paper observed.
func writeSubmitLogged(ch *msgChain) {
	ch.op.tr.Stamp(StagePrepared, ch.o.k.Now())
	ch.throttle(writeThrottled)
}

// throttle takes a filestore_queue_max_ops token for the chain, then runs
// step.
func (ch *msgChain) throttle(step func(*msgChain)) {
	ch.step = step
	if ch.eng.fsThrottle.AcquireCall(1, chainStep, ch) {
		step(ch)
	}
}

func writeThrottled(ch *msgChain) {
	o, op := ch.o, ch.op
	if o.gen != ch.eng.gen {
		ch.end() // crashed before the journal saw it: never acked, never durable
		return
	}
	now := o.k.Now()
	op.tr.Stamp(StageSubmitted, now)
	shardLen := o.pol.ShardLen(op.Len)
	e := o.getJEntry()
	e.t.PG, e.t.Seq, e.t.Bytes, e.enq, e.cop = op.PG, op.seq, shardLen+JournalHeaderBytes, now, op
	e.t.OID, e.t.Off, e.t.Len, e.t.Stamp = op.OID, op.Off, shardLen, op.Stamp
	ch.e = e
	journalPush(ch)
}

// journalPush queues the chain's entry for the journal writer, waiting
// while the journal queue is full, and ends the chain.
func journalPush(ch *msgChain) {
	ch.step = journalPush
	if ch.eng.journalQ.PushCall(ch.e, chainStep, ch) {
		ch.end()
	}
}

// processRead services a read on the primary under the PG lock: the read
// path (startRead), then the reply or the read-repair, in the worker's
// chain.
func (o *OSD) processRead(ch *msgChain, op *ClientOp) {
	if o.pol.Kind() == redundancy.KindEC {
		// EC pools cannot serve from one copy: the primary gathers k of the
		// k+m shards (its own included) and reconstructs if any are parity.
		o.processECRead(ch, op)
		return
	}
	o.metrics.ReadOps.Inc()
	ch.op = op
	ch.startRead(op.OID, op.Off, op.Len, readDone)
}

// startRead runs the head of every read an op worker serves: the read's
// log, the op setup CPU, readCPU, then the store read of size bytes of oid
// at off; then tail.
func (ch *msgChain) startRead(oid string, off, size int64, tail func(*msgChain)) {
	ch.rd.OID, ch.rd.Off, ch.rd.Size = oid, off, size
	ch.then = tail
	ch.logStep(siteRead, readLogged)
}

func readLogged(ch *msgChain) { ch.setUp(readSetUp) }

func readSetUp(ch *msgChain) { ch.charge(readCPU, readCharged) }

func readCharged(ch *msgChain) { ch.read(ch.then) }

// readDone answers a replicated read from the local copy, once the ack's
// log is written, or starts the replica hunt when the copy is damaged.
func readDone(ch *msgChain) {
	o, op := ch.o, ch.op
	switch {
	case o.gen != ch.eng.gen:
		// Crashed mid-read: no reply, client retries elsewhere.
		ch.end()
	case ch.rd.Exists && o.fs.ExtentDamaged(op.OID, op.Off):
		// The local copy failed verification: corrupt data is never
		// returned. Fetch the extent from a replica (read-repair), or fail
		// the read with EIO when no healthy copy exists anywhere.
		startReadRepair(ch)
	default:
		ch.logStep(siteAck, readAcked)
	}
}

func readAcked(ch *msgChain) {
	o, op := ch.o, ch.op
	rep := o.newReply()
	rep.Op, rep.Stamp, rep.Exists = op, ch.rd.Stamp, ch.rd.Exists
	o.ep.Send(nil, op.Client, op.Len+readReplyOverhead, MsgReply, rep)
	ch.eng.msgCap.Release(1)
	ch.end()
}

// repLogBuilt logs the sub-op's primary-assigned sequence, then takes a
// filestore throttle token.
func repLogBuilt(ch *msgChain) {
	o, rop := ch.o, ch.rop
	if o.gen != ch.eng.gen {
		ch.end()
		return
	}
	// Track the primary-assigned sequence so this OSD can continue the
	// numbering seamlessly if it ever becomes the acting primary.
	st := o.pg(rop.pg)
	st.seq = max(st.seq, rop.seq)
	switch head := o.PGLogHead(rop.pg); {
	case rop.seq == head+1:
		o.appendPGLog(rop.pg, PGLogEntry{Seq: rop.seq, OID: rop.oid, Stamp: rop.stamp})
	case rop.seq > head+1:
		// A previous acting primary's sub-ops for the gap never reached this
		// member (lost with a crash or a partition) and a new interval has
		// started above them. Adopt past the hole so the local log stays
		// contiguous; recovery backfills whatever data the gap carried.
		o.AdoptPGState(rop.pg, rop.seq-1)
		o.appendPGLog(rop.pg, PGLogEntry{Seq: rop.seq, OID: rop.oid, Stamp: rop.stamp})
	default:
		// rop.seq <= head: a late-delivered sub-op for a sequence the local
		// log already covers (logged earlier, or adopted during recovery
		// peering while this message was in flight). Re-logging it would
		// fork the history; the payload still journals below — the stamp is
		// the one the log recorded for that sequence, so applying it is
		// idempotent and the commit keeps the primary's ack path whole.
	}
	ch.throttle(repThrottled)
}

func repThrottled(ch *msgChain) {
	o, rop := ch.o, ch.rop
	if o.gen != ch.eng.gen {
		ch.end()
		return
	}
	e := o.getJEntry()
	e.t.PG, e.t.Seq, e.t.Bytes, e.enq, e.rop = rop.pg, rop.seq, rop.length+JournalHeaderBytes, o.k.Now(), rop
	e.t.OID, e.t.Off, e.t.Len, e.t.Stamp = rop.oid, rop.off, rop.length, rop.stamp
	ch.e = e
	journalPush(ch)
}

// journalWriter is the journal writer thread as a callback machine: it
// drains the commit queue into the backend's write-ahead path and
// dispatches commit completions. Each step runs in the event slot where
// the thread would have resumed.
type journalWriter struct {
	o    *OSD
	eng  *engine
	e    *jEntry // the entry in flight
	meta *filestore.Transaction
	work cpumodel.Work
}

// jwNext takes the next entry off the commit queue, or waits for one, and
// commits it; the writer stops once its daemon instance has crashed.
func jwNext(a any) {
	w := a.(*journalWriter)
	o, eng := w.o, w.eng
	e, ok := eng.journalQ.PopCall(jwNext, w)
	if !ok || o.gen != eng.gen {
		return
	}
	o.JournalQDelay.Record(int64(o.k.Now() - e.enq))
	w.e, w.meta = e, nil
	if o.metaAtCommit {
		w.meta = o.buildTx(e)
	}
	e.t.Done, e.t.Arg = jwCommitted, w
	o.store.CommitCall(&e.t, w.meta) // waits while write-ahead space is full
}

func jwCommitted(a any) {
	w := a.(*journalWriter)
	o, e := w.o, w.e
	if o.gen != w.eng.gen {
		// Torn commit: the crash hit mid-I/O, so the entry is not
		// durable. It was never acked; the client retries.
		return
	}
	if w.meta != nil {
		o.putTx(w.meta)
		w.meta = nil
	}
	// The entry is durable: retain its image for crash replay until
	// the backend apply lands.
	o.store.Committed(&e.t)
	now := o.k.Now()
	if e.cop != nil {
		e.cop.tr.Stamp(StageJournalWritten, now)
	}
	if e.rop != nil {
		e.rop.parent.tr.Stamp(StageRepJournaled, now)
	}
	if o.cfg.OptCompletionWorker {
		// Minimal work under the OP lock; PG-lock bookkeeping deferred
		// to the batching completion worker (§3.1, Fig. 6).
		w.work.Done, w.work.Arg = jwCharged, w
		o.node.UseCall(&w.work, commitFastCPU)
		return
	}
	w.eng.comp.Submit(int(e.t.PG), completion{site: siteCommit, e: e})
	jwApply(w)
}

// jwCharged records the local commit and sends the acks it releases.
func jwCharged(a any) {
	w := a.(*journalWriter)
	o, op := w.o, w.e.cop
	if op != nil && o.commitsDone(op, false) {
		ch := o.callChain(o.eng, jwAcked, w)
		o.startAcks(&ch.acks, op)
		ackStep(ch)
		return
	}
	jwAcked(w)
}

func jwAcked(a any) {
	w := a.(*journalWriter)
	e := w.e
	if e.rop != nil {
		w.o.sendRepCommit(e.rop)
	}
	w.eng.comp.Submit(int(e.t.PG), completion{site: siteCommit})
	jwApply(w)
}

// jwApply hands the entry on to the filestore workers (write-ahead order:
// the backend apply follows the commit) and takes the next.
func jwApply(w *journalWriter) {
	e := w.e
	w.e = nil
	w.eng.fsQ.TryPush(e)
	jwNext(w)
}

// complete runs a completion under its PG lock, in a chain that ends by
// running done(arg): deferredCPU for the AFCeph completion worker's
// bookkeeping, or commitCPU with its allocations for the community
// finisher; then the site's log entries; then, for the finisher, a
// replica commit's notification or the acks a commit releases, or an
// apply's recycling of the entry.
func (o *OSD) complete(eng *engine, c completion, done func(any), arg any) {
	ch := o.callChain(eng, done, arg)
	ch.site, ch.e = c.site, c.e
	cost := deferredCPU
	if !o.cfg.OptCompletionWorker {
		cost = commitCPU + o.node.AllocCost(commitAllocs)
	}
	ch.charge(cost, completionCharged)
}

func completionCharged(ch *msgChain) { ch.logStep(ch.site, completionLogged) }

func completionLogged(ch *msgChain) {
	o, e := ch.o, ch.e
	switch {
	case e == nil:
		// AFCeph: the journal writer and the filestore worker did the rest.
	case ch.site == siteApplied:
		// Both completions of this entry have run (the queue is FIFO, so
		// the commit preceded this); nothing references the entry or its
		// replica sub-op any longer.
		o.putJEntry(e)
	case e.rop != nil:
		o.sendRepCommit(e.rop)
	case o.commitsDone(e.cop, false):
		o.startAcks(&ch.acks, e.cop)
	}
	ackStep(ch)
}

func (o *OSD) sendRepCommit(rop *repOp) {
	rc := o.getRepCommit()
	rc.parent = rop.parent
	o.cep.Send(nil, rop.primary, 150, MsgRepCommit, rc)
}

// fsWorker is one filestore worker thread as a callback machine: it
// applies committed transactions to the backend, releases their
// write-ahead space and returns the throttle token. The workers share the
// apply queue's getter FIFO, so an entry goes to the worker whose pop
// would have taken it.
type fsWorker struct {
	o       *OSD
	eng     *engine
	e       *jEntry // the entry in flight
	meta    *filestore.Transaction
	inApply bool // inside ApplyCall: an apply that completes inline is seen here
}

// fswNext applies entries until one has to wait, or waits for the next;
// the worker stops once its daemon instance has crashed.
func fswNext(a any) {
	w := a.(*fsWorker)
	o, eng := w.o, w.eng
	for {
		e, ok := eng.fsQ.PopCall(fswNext, w)
		if !ok || o.gen != eng.gen {
			return
		}
		w.e, w.meta = e, nil
		if !o.metaAtCommit {
			w.meta = o.buildTx(e)
		}
		e.t.Done, e.t.Arg = fswApplied, w
		w.inApply = true
		o.store.ApplyCall(&e.t, w.meta)
		if w.inApply {
			w.inApply = false
			return // fswApplied goes on
		}
		if !w.applied() {
			return
		}
	}
}

func fswApplied(a any) {
	w := a.(*fsWorker)
	if w.inApply {
		w.inApply = false // completed inline: fswNext goes on
		return
	}
	if w.applied() {
		fswNext(w)
	}
}

// applied books a landed apply and reports whether the worker goes on.
func (w *fsWorker) applied() bool {
	o, eng, e := w.o, w.eng, w.e
	if o.gen != eng.gen {
		return false
	}
	o.ApplyDelay.Record(int64(o.k.Now() - e.enq))
	if w.meta != nil {
		o.putTx(w.meta)
	}
	w.e, w.meta = nil, nil
	o.markApplied(e.t.PG, e.t.Seq)
	o.store.Applied(&e.t)
	eng.fsThrottle.Release(1)
	if o.cfg.OptCompletionWorker {
		eng.comp.Submit(int(e.t.PG), completion{site: siteApplied})
		// The entry has cleared commit, apply and completion dispatch;
		// the commit notification was sent back by the journal writer.
		// Recycle it and its replica sub-op.
		o.putJEntry(e)
	} else {
		eng.comp.Submit(int(e.t.PG), completion{site: siteApplied, e: e})
	}
	return true
}

// makeTx builds a filestore transaction for one logical write. Transactions
// are recycled and their value buffers shared (the kvstore keeps only a
// value's length); key strings are freshly allocated because the kvstore
// retains them, except the per-oid omap key, which is immutable and cached.
func (o *OSD) makeTx(pg uint32, oid string, off, length int64, stamp uint64) *filestore.Transaction {
	o.logSeq++
	if o.pglogVal == nil {
		o.pglogVal = make([]byte, pglogValueBytes)
		o.omapVal = make([]byte, omapBytes)
	}
	b := append(o.keyBuf[:0], "pglog."...)
	b = strconv.AppendUint(b, uint64(pg), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, o.logSeq, 10)
	o.keyBuf = b
	okey, ok := o.omapKeys[oid]
	if !ok {
		okey = "omap." + oid + ".info"
		o.omapKeys[oid] = okey
	}
	tx := o.getTx()
	tx.OID, tx.Off, tx.Len = oid, off, length
	tx.PGLogKey = string(b)
	tx.PGLogValue = o.pglogVal
	tx.OmapOps = append(tx.OmapOps[:0], kvstore.Op{Key: okey, Value: o.omapVal})
	tx.XattrBytes = 250
	tx.Stamp = stamp
	return tx
}

// buildTx converts a pipeline entry into the metadata transaction. It reads
// only the entry's own payload copy: at the primary the originating op may
// already be acked (and recycled) by apply time.
func (o *OSD) buildTx(e *jEntry) *filestore.Transaction {
	return o.makeTx(e.t.PG, e.t.OID, e.t.Off, e.t.Len, e.t.Stamp)
}

// commitsDone records a commit for op and reports whether it completed the
// commit set, so the ack is due.
func (o *OSD) commitsDone(op *ClientOp, fromReplica bool) bool {
	if op.gen != o.gen {
		return false // completion for an op accepted before a crash
	}
	now := o.k.Now()
	if fromReplica {
		op.waitCommits--
		if op.waitCommits == 0 {
			op.tr.Stamp(StageReplicaCommit, now)
		}
	} else {
		op.localCommit = true
		op.tr.Stamp(StageLocalCommit, now)
	}
	if op.localCommit && op.waitCommits <= 0 && !op.acked {
		op.tr.Stamp(StageCommitsDone, now)
		return true
	}
	return false
}

// ackRun walks the acks one completed commit set releases: the op itself,
// or, when OrderedAcks is on (the §3.1 option for clients that require
// in-order completion), every held op of its PG from the PG's ack cursor
// on. Each ack may wait for CPU, so the run reads the held set afresh per
// step and writes the cursor back only when it ends.
type ackRun struct {
	first *ClientOp // acked ahead of any held op
	held  map[uint64]*ClientOp
	st    *pgState
	next  uint64
}

func (o *OSD) startAcks(r *ackRun, op *ClientOp) {
	*r = ackRun{}
	if !o.cfg.OrderedAcks {
		r.first = op
		return
	}
	st := o.pg(op.PG)
	next := st.ackNext
	if next == 0 {
		next = 1
	}
	if op.seq < next {
		// The PG's log head was adopted past this op while it was in
		// flight (failover recovery). Ordering restarts at the adopted
		// head; acking immediately keeps the op from being held forever.
		r.first = op
		return
	}
	if st.ackHeld == nil {
		st.ackHeld = make(map[uint64]*ClientOp)
	}
	st.ackHeld[op.seq] = op
	r.held, r.st, r.next = st.ackHeld, st, next
}

// nextAck returns the run's next op to ack, or nil once the run is over.
func (o *OSD) nextAck(r *ackRun) *ClientOp {
	if op := r.first; op != nil {
		r.first = nil
		return op
	}
	if r.held == nil {
		return nil
	}
	op, ok := r.held[r.next]
	if !ok {
		r.st.ackNext = r.next
		r.held = nil
		return nil
	}
	delete(r.held, r.next)
	r.next++
	return op
}

// finishAck replies to the client once the ack's CPU and log charges are
// paid, returns the op's msgCap token and collects its trace.
func (o *OSD) finishAck(op *ClientOp) {
	rep := o.newReply()
	rep.Op = op
	o.ep.Send(nil, op.Client, ackBytes, MsgReply, rep)
	// Release on the op's own generation is exact; after a crash the
	// current semaphore's clamped Release makes a mismatch harmless.
	o.eng.msgCap.Release(1)
	op.tr.Stamp(StageAcked, o.k.Now())
	if op.tr != nil {
		// Every stage has stamped by ack time (all replica commits precede
		// the ack), so the trace is quiescent once collected.
		o.traces.Add(op.tr)
		o.putTrace(op.tr)
		op.tr = nil
	}
	o.metrics.AcksSent.Inc()
}
