package osd

// The in-memory PG log. The paper's §3.1 keeps Ceph's PG lock scheme
// precisely because the PG log underpins recovery: "PG log is used to
// recover PG metadata ... it should be written sequentially in order to do
// rollback to the previous state." This file maintains that log for every
// PG an OSD hosts — entries are appended under the PG-ordering discipline
// (dispatcher worker or completion path) with primary-assigned sequence
// numbers — and exposes the invariant checks the optimization profiles
// must preserve: per-PG sequence numbers strictly increase, and trims only
// remove applied-and-durable prefixes.

import "strconv"

// PGLogEntry records one mutation of a placement group.
type PGLogEntry struct {
	Seq   uint64 // primary-assigned, strictly increasing per PG
	OID   string
	Stamp uint64
}

// pgState is everything an OSD tracks for one PG.
type pgState struct {
	// entries is the PG's log, appliedSeq its applied (durable in
	// filestore) horizon and trimmedTo the last sequence trimmed off it.
	entries    []PGLogEntry
	appliedSeq uint64
	trimmedTo  uint64
	// seq is the highest primary-assigned sequence assigned or processed
	// here: assignment memory, kept across a crash (see Crash).
	seq uint64
	// seen is the highest replication sub-op sequence delivered, recorded
	// at message arrival (before dispatch). It widens the peering seq
	// horizon to cover queued-but-unprocessed sub-ops; reset on crash
	// because those queue entries die with the daemon.
	seen uint64
	// ackNext is the ordered-ack cursor and ackHeld the committed ops
	// waiting behind it, by sequence (OrderedAcks only).
	ackNext uint64
	ackHeld map[uint64]*ClientOp
}

// pg returns the PG's state, creating it on first use. The table is
// indexed by PG id, so walking it visits PGs in id order; records never
// move, so a pointer to one stays valid as the table grows. pg stays out
// of line, so the allocations of a PG's first touch count here (afvet
// hotalloc), not against each op-path caller.
//
//go:noinline
func (o *OSD) pg(pg uint32) *pgState {
	for len(o.pgs) <= int(pg) {
		o.pgs = append(o.pgs, nil)
	}
	st := o.pgs[pg]
	if st == nil {
		st = &pgState{}
		o.pgs[pg] = st
	}
	return st
}

// pgLogKeep is how many applied entries remain after a trim (Ceph keeps a
// bounded tail for peer recovery).
const pgLogKeep = 100

// appendPGLog records a mutation; called with per-PG ordering guaranteed
// by the caller (dispatcher worker under the PG lock).
func (o *OSD) appendPGLog(pg uint32, e PGLogEntry) {
	l := o.pg(pg)
	l.entries = append(l.entries, e)
}

// markApplied advances the applied horizon and trims the log prefix,
// keeping pgLogKeep applied entries for recovery.
func (o *OSD) markApplied(pg uint32, seq uint64) {
	l := o.pg(pg)
	if seq > l.appliedSeq {
		l.appliedSeq = seq
	}
	// Trim entries below the applied horizon minus the retained tail.
	if l.appliedSeq <= pgLogKeep {
		return
	}
	horizon := l.appliedSeq - pgLogKeep
	cut := 0
	for cut < len(l.entries) && l.entries[cut].Seq <= horizon {
		cut++
	}
	if cut > 0 {
		l.trimmedTo = l.entries[cut-1].Seq
		// Shift in place: the backing array never escapes (PGLog returns a
		// copy), so the trim need not reallocate per applied entry.
		l.entries = l.entries[:copy(l.entries, l.entries[cut:])]
	}
}

// PGLog returns a copy of the retained log for a PG.
func (o *OSD) PGLog(pg uint32) []PGLogEntry {
	return append([]PGLogEntry(nil), o.pg(pg).entries...)
}

// PGLogApplied returns the PG's applied horizon.
func (o *OSD) PGLogApplied(pg uint32) uint64 { return o.pg(pg).appliedSeq }

// AdoptPGState fast-forwards the PG's log to the agreed post-recovery head:
// the local (stale) entries are discarded, the trim horizon moves to the
// adopted sequence, and future entries continue from there. The ordered-ack
// cursor follows the head so that sequences skipped by the adoption (e.g. a
// crashed primary's journaled-but-unreplicated tail) can never wedge it.
func (o *OSD) AdoptPGState(pg uint32, seq uint64) {
	if seq == 0 {
		return
	}
	st := o.pg(pg)
	st.ackNext = max(st.ackNext, seq+1)
	if seq <= st.appliedSeq {
		return
	}
	st.entries = nil
	st.trimmedTo = seq
	st.appliedSeq = seq
	st.seq = max(st.seq, seq)
}

// PGLogHead returns the newest sequence this OSD has logged for the PG
// (zero when it has none).
func (o *OSD) PGLogHead(pg uint32) uint64 {
	l := o.pg(pg)
	if n := len(l.entries); n > 0 {
		return l.entries[n-1].Seq
	}
	return l.trimmedTo
}

// PGSeqHorizon returns the highest primary-assigned sequence this OSD
// knows about for a PG: assigned or processed (seq) or delivered but
// still queued (seen). Recovery peering takes the maximum across a PG's
// members so a new acting primary never re-assigns a sequence another
// member has already logged — or is about to log from its queue.
func (o *OSD) PGSeqHorizon(pg uint32) uint64 {
	st := o.pg(pg)
	return max(st.seq, st.seen)
}

// RaisePGSeq floors the PG's assignment counter at seq without touching
// the log: the next client write this OSD leads will be numbered past every
// sequence the peering horizon covered.
func (o *OSD) RaisePGSeq(pg uint32, seq uint64) {
	st := o.pg(pg)
	st.seq = max(st.seq, seq)
}

// PGLogViolations checks the recovery invariants over every PG this OSD
// has logged: sequences strictly increasing, no gap between the trimmed
// prefix and the retained entries, and the applied horizon within range.
// It returns human-readable violations (empty = healthy).
func (o *OSD) PGLogViolations() []string {
	var out []string
	for id, l := range o.pgs {
		if l == nil {
			continue
		}
		pg := uint32(id)
		prev := l.trimmedTo
		for _, e := range l.entries {
			if e.Seq != prev+1 {
				out = append(out, pgLogErr(pg, "gap or reorder", prev, e.Seq))
			}
			prev = e.Seq
		}
		if l.appliedSeq > prev {
			out = append(out, pgLogErr(pg, "applied beyond log head", prev, l.appliedSeq))
		}
	}
	return out
}

func pgLogErr(pg uint32, what string, a, b uint64) string {
	return "pg " + strconv.FormatUint(uint64(pg), 10) + ": " + what +
		" (" + strconv.FormatUint(a, 10) + " -> " + strconv.FormatUint(b, 10) + ")"
}
