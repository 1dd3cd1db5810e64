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
func (o *OSD) PGLog(pg uint32) []PGLogEntry { //afvet:allow unused cluster/scrub_test.go's TestPGLogsOrderedAfterWorkload and TestPGLogTrimBoundsMemory read the retained logs
	return append([]PGLogEntry(nil), o.pg(pg).entries...)
}

// adoptPGState fast-forwards the PG's log to an agreed head: the local
// (stale) entries are discarded, the trim horizon moves to the adopted
// sequence, and future entries continue from there. The ordered-ack
// cursor follows the head so that sequences skipped by the adoption (e.g.
// a crashed primary's journaled-but-unreplicated tail) can never wedge it.
func (o *OSD) adoptPGState(pg uint32, seq uint64) {
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

// pgLogHead returns the newest sequence this OSD has logged for the PG
// (zero when it has none).
func (o *OSD) pgLogHead(pg uint32) uint64 {
	l := o.pg(pg)
	if n := len(l.entries); n > 0 {
		return l.entries[n-1].Seq
	}
	return l.trimmedTo
}

// Peer is recovery peering for one PG as target rejoins it; peers are
// the PG's other up members and members its whole CRUSH set, down members
// included. backfill says target restarted from a crash, so no peer log
// can describe what it missed. Synchronous, and allocating only the
// result, it takes three steps:
//
//   - Log coverage, before adoption rewrites any log: when the last peer's
//     retained log covers target's gap past its applied horizon, missed
//     names the objects logged in the gap, the only ones recovery
//     compares; otherwise missed is nil and recovery backfills the PG.
//   - Head adoption: target and peers adopt the highest log head among
//     them (a peer that ran ahead degraded, or a crashed target whose
//     replayed journal holds sequences no peer received), so sequences
//     continue contiguously whichever member leads next.
//   - Sequence floor: a sub-op the last primary fanned out may still be
//     queued at a peer or on the wire, invisible to log heads. So target's
//     and peers' assignment counters, not their logs, are floored at the
//     highest horizon (seq, or seen) over all members: a crash keeps the
//     counter so a dead assigner still vouches for what it launched, and
//     the monitor would hold this interval metadata, so reading a down
//     member costs no simulated I/O.
func Peer(pg uint32, target *OSD, peers, members []*OSD, backfill bool) (missed map[string]bool) {
	applied := target.pg(pg).appliedSeq
	log := peers[len(peers)-1].pg(pg).entries
	if !backfill && len(log) > 0 && log[0].Seq <= applied+1 {
		missed = make(map[string]bool)
		for _, e := range log {
			if e.Seq > applied {
				missed[e.OID] = true
			}
		}
	}
	head := target.pgLogHead(pg)
	for _, p := range peers {
		head = max(head, p.pgLogHead(pg))
	}
	if head > 0 {
		target.adoptPGState(pg, head)
		for _, p := range peers {
			p.adoptPGState(pg, head)
		}
	}
	floor := head
	for _, m := range members {
		st := m.pg(pg)
		floor = max(floor, st.seq, st.seen)
	}
	if floor > head {
		st := target.pg(pg)
		st.seq = max(st.seq, floor)
		for _, p := range peers {
			st := p.pg(pg)
			st.seq = max(st.seq, floor)
		}
	}
	return missed
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
