package osd

// Free lists for the write-path records that used to be allocated per op:
// journal entries, replication sub-ops, commit notifications, message
// chains, traces, filestore transactions and replies (the retained-journal
// mirror pools moved into the store backends with the crash-replay log).
// Each is a sim.FreeList, per OSD or, for replies, which migrate to the
// clients, per cluster. Records are recycled only at points where the
// pipeline provably holds no other reference; anything dropped early by a
// crash or a network fault simply falls to the garbage collector.

// putJEntry recycles a journal entry and the replica sub-op riding on it.
// Called once the entry has fully cleared the apply+completion pipeline.
func (o *OSD) putJEntry(e *jEntry) {
	if e.rop != nil {
		*e.rop = repOp{}
		o.ropFree.Put(e.rop)
	}
	*e = jEntry{}
	o.jeFree.Put(e)
}
