package osd

import "repro/internal/filestore"

// Free lists for the write-path records that used to be allocated per op:
// journal entries, replication sub-ops, commit notifications, traces and
// filestore transactions (the retained-journal mirror pools moved into the
// store backends with the crash-replay log). A DES kernel runs
// exactly one process at a time, so per-OSD (and per-cluster, for records
// that migrate between daemons) free lists need no locking. Records are
// recycled only at points where the pipeline provably holds no other
// reference; anything dropped early by a crash or a network fault simply
// falls to the garbage collector.

func (o *OSD) getJEntry() *jEntry {
	if n := len(o.jeFree); n > 0 {
		e := o.jeFree[n-1]
		o.jeFree = o.jeFree[:n-1]
		return e
	}
	return &jEntry{}
}

// putJEntry recycles a journal entry and the replica sub-op riding on it.
// Called once the entry has fully cleared the apply+completion pipeline.
func (o *OSD) putJEntry(e *jEntry) {
	if e.rop != nil {
		*e.rop = repOp{}
		o.ropFree = append(o.ropFree, e.rop)
	}
	*e = jEntry{}
	o.jeFree = append(o.jeFree, e)
}

func (o *OSD) getRepOp() *repOp {
	if n := len(o.ropFree); n > 0 {
		r := o.ropFree[n-1]
		o.ropFree = o.ropFree[:n-1]
		return r
	}
	return &repOp{}
}

func (o *OSD) getRepCommit() *repCommit {
	if n := len(o.rcFree); n > 0 {
		rc := o.rcFree[n-1]
		o.rcFree = o.rcFree[:n-1]
		return rc
	}
	return &repCommit{}
}

func (o *OSD) putRepCommit(rc *repCommit) {
	*rc = repCommit{}
	o.rcFree = append(o.rcFree, rc)
}

func (o *OSD) getTrace() *Trace {
	if n := len(o.trFree); n > 0 {
		tr := o.trFree[n-1]
		o.trFree = o.trFree[:n-1]
		*tr = Trace{}
		return tr
	}
	return &Trace{}
}

func (o *OSD) putTrace(tr *Trace) { o.trFree = append(o.trFree, tr) }

// getTx returns a transaction with reusable buffers: the PG-log and omap
// value buffers are shared (the kvstore keeps only their length), while key
// strings must stay freshly allocated because the memtable retains them.
func (o *OSD) getTx() *filestore.Transaction {
	if n := len(o.txFree); n > 0 {
		tx := o.txFree[n-1]
		o.txFree = o.txFree[:n-1]
		return tx
	}
	return &filestore.Transaction{}
}

// putTx recycles a transaction after filestore.Apply returned; the store
// keeps no reference to the record or its value buffers.
func (o *OSD) putTx(tx *filestore.Transaction) { o.txFree = append(o.txFree, tx) }

// ReplyPool recycles Reply records across the OSDs and clients of one
// simulated cluster. OSDs draw replies from it; a client returns a reply
// (and rides no other reference) once the requesting op completed.
type ReplyPool struct{ free []*Reply }

// NewReplyPool returns an empty pool.
func NewReplyPool() *ReplyPool { return &ReplyPool{} }

// Get returns a zeroed Reply.
func (rp *ReplyPool) Get() *Reply {
	if n := len(rp.free); n > 0 {
		r := rp.free[n-1]
		rp.free = rp.free[:n-1]
		return r
	}
	return &Reply{}
}

// Put recycles a reply whose contents have been fully consumed.
func (rp *ReplyPool) Put(r *Reply) {
	*r = Reply{}
	rp.free = append(rp.free, r)
}

// SetReplyPool shares a reply pool with this OSD (typically one per
// cluster). Without one, replies are allocated normally.
func (o *OSD) SetReplyPool(rp *ReplyPool) { o.replies = rp }

func (o *OSD) newReply() *Reply {
	if o.replies != nil {
		return o.replies.Get()
	}
	return &Reply{}
}
