package osd

import (
	"repro/internal/filestore"
	"repro/internal/sim"
	"repro/internal/store"
)

// Crash kills the OSD daemon at the current instant, as an injected fault
// would: every in-flight op, queued work item and un-journaled write is
// lost, and the daemon stops receiving messages. What survives is exactly
// the durable state — the filestore contents, and the NVRAM journal's
// retained (journaled-but-unapplied) entries, which Restart replays. PG
// logs are truncated to the durable horizon: applied state plus retained
// journal entries; sequences above it were never durable here.
//
// Crash is instantaneous (no sim time passes) and idempotent.
func (o *OSD) Crash() {
	if o.crashed {
		return
	}
	o.crashed = true
	o.dirty = true
	o.gen++
	o.metrics.Crashes.Inc()
	// Messages still sitting in this daemon's socket buffers die with it.
	o.ep.SetDead(true)
	if o.cep != o.ep {
		o.cep.SetDead(true)
	}

	// Durable horizon per PG: the highest sequence that is applied or
	// committed. Commit order is per-PG FIFO, so every sequence at or
	// below the horizon is durable and the kept log prefix stays contiguous.
	var committed []uint64
	o.store.UnappliedSeqs(func(pg uint32, seq uint64) {
		for len(committed) <= int(pg) {
			committed = append(committed, 0)
		}
		committed[pg] = max(committed[pg], seq)
	})
	for id, st := range o.pgs {
		if st == nil {
			continue
		}
		h := st.appliedSeq
		if id < len(committed) {
			h = max(h, committed[id])
		}
		cut := len(st.entries)
		for cut > 0 && st.entries[cut-1].Seq > h {
			cut--
		}
		st.entries = st.entries[:cut]
		// st.seq is deliberately NOT truncated with the log: it is assignment
		// memory, not durable state. A sequence this primary assigned may be
		// in flight to (or already logged by) a peer even though it never
		// became durable here; recovery peering folds this counter into the
		// seq floor so no later acting primary can ever re-assign it. Writes
		// this daemon leads after rejoining adopt past any non-durable tail
		// (see processWrite), so its own log stays contiguous.
		//
		// Pending ordered-ack state referenced dead ops, and the
		// delivered-seq horizon covered queue entries that just died with
		// the daemon. An ack run still in flight keeps the held set it took.
		st.ackNext, st.ackHeld, st.seen = 0, nil, 0
	}
}

// Restart boots a fresh daemon instance after a Crash: it rebuilds the
// engine (queues, throttles, the backend's per-generation write-ahead
// state), then has the backend replay every committed-but-unapplied entry
// in commit order — this is what makes acked writes crash consistent — and
// resumes receiving messages. It consumes simulated time for the replay
// I/O and returns the number of entries replayed.
//
// The OSD stays marked down in the cluster map until recovery
// (RecoverOSD) backfills it; the dirty flag tells recovery that this was a
// crash, not an administrative down, so PG logs of peers cannot be
// trusted to describe this OSD's delta.
func (o *OSD) Restart(p *sim.Proc) int {
	if !o.crashed {
		panic("osd: Restart on a live OSD")
	}
	o.buildEngine()
	replayed := o.store.Replay(p, store.ReplayHooks{
		BuildMeta: func(pg uint32, oid string, off, length int64, stamp uint64) *filestore.Transaction {
			return o.makeTx(pg, oid, off, length, stamp)
		},
		Applied: func(pg uint32, seq uint64, meta *filestore.Transaction) {
			if meta != nil {
				o.putTx(meta)
			}
			o.markApplied(pg, seq)
		},
	})
	o.metrics.JournalReplays.Add(uint64(replayed))
	o.crashed = false
	o.ep.SetDead(false)
	if o.cep != o.ep {
		o.cep.SetDead(false)
	}
	o.startWorkers()
	return replayed
}

// Crashed reports whether the daemon is currently down from a crash.
func (o *OSD) Crashed() bool { return o.crashed }

// Dirty reports whether the OSD restarted from a crash and has not yet
// been through recovery (peers' PG logs cannot describe its delta).
func (o *OSD) Dirty() bool { return o.dirty }

// ClearDirty marks crash recovery complete; called by cluster recovery
// after the backfill.
func (o *OSD) ClearDirty() { o.dirty = false }
