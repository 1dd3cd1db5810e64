package cluster

import (
	"fmt"
	"sort"

	"repro/internal/crush"
	"repro/internal/filestore"
	"repro/internal/redundancy"
	"repro/internal/sim"
)

// OSD failure and recovery. The paper's §3.1 declines to replace the PG
// lock scheme because it is "the basis of the recovery system": the PG log
// must be written sequentially so a rejoining OSD can tell what it missed.
// This file implements that recovery so the claim is load-bearing in the
// model too.
//
// Two ways out of service, with different guarantees:
//
//   - FailOSD is an administrative down: the daemon keeps running, it is
//     only removed from placement. In-flight ops it accepted still
//     complete. Safe mid-workload when clients run with ClientOpTimeout
//     (they resend to the new acting primary); without a timeout the
//     caller must be quiescent, since ops addressed to the down OSD would
//     otherwise wait forever.
//   - CrashOSD kills the daemon at the current instant: in-flight ops,
//     queued work and un-journaled writes are lost. The NVRAM journal and
//     the filestore survive; RestartOSD(In) replays the journal so that
//     no *acked* write is lost, and the OSD is flagged dirty so recovery
//     backfills it instead of trusting PG-log deltas.
//
// RecoverOSD brings a down OSD back and resynchronizes every PG it
// participates in. When a healthy peer's retained PG log covers the missed
// interval (and the OSD went down cleanly), only the logged objects are
// compared (log-based recovery); otherwise the whole PG is compared
// object-by-object (backfill). Either way the data motion is simulated
// I/O: a read on the peer, a network push, a write on the rejoining OSD.
//
// After RecoverOSD completes, ScrubAll must come back clean — the
// regression test that the optimizations kept recovery intact.

// Down reports whether an OSD is failed out.
func (c *Cluster) Down(id int) bool { return c.down[id] }

// Epoch returns the OSD-map epoch (bumped by failures and recoveries).
func (c *Cluster) Epoch() int { return c.epoch }

// FailOSD administratively marks an OSD down: clients route around it (the
// next up OSD in the CRUSH set acts as primary) and primaries stop
// replicating to it. Writes during the outage are degraded.
func (c *Cluster) FailOSD(id int) { c.markOSDDown(id) }

// markOSDDown records an OSD as out of service (administrative, crash, or
// heartbeat-detected), bumps the map epoch once, and wakes client attempts
// addressed to it so they resend.
func (c *Cluster) markOSDDown(id int) {
	if c.down[id] {
		return
	}
	c.down[id] = true
	c.epoch++
	c.notifyClients()
}

func (c *Cluster) notifyClients() {
	for _, cl := range c.clientList {
		cl.noteEpoch()
	}
}

// CrashOSD kills an OSD daemon mid-workload (see osd.Crash) and marks it
// down. Unlike FailOSD this models a real failure: everything in flight on
// the daemon is lost and only journaled state survives.
func (c *Cluster) CrashOSD(id int) {
	c.osds[id].Crash()
	c.markOSDDown(id)
}

// RestartOSDIn reboots a crashed OSD from process context, replaying its
// retained journal into the filestore (simulated replay I/O passes on p).
// The OSD stays down in the map until RecoverOSD. Returns the number of
// journal entries replayed.
func (c *Cluster) RestartOSDIn(p *sim.Proc, id int) int {
	n := c.osds[id].Restart(p)
	if c.lastReplays == nil {
		c.lastReplays = make(map[int]int)
	}
	c.lastReplays[id] += n
	return n
}

// RestartOSD is the quiescent-cluster wrapper around RestartOSDIn: it runs
// the replay to completion on its own. Do not call while the kernel is
// running or while heartbeats are live — use RestartOSDIn from a process.
func (c *Cluster) RestartOSD(id int) int {
	var n int
	c.K.Go(fmt.Sprintf("restart.osd%d", id), func(p *sim.Proc) {
		n = c.RestartOSDIn(p, id)
	})
	c.K.Run(sim.Forever)
	return n
}

// actingSet returns the up members of a PG's CRUSH set in order; the first
// entry acts as primary while any preferred member is down. The result is
// memoized for the current map epoch and must be treated as read-only.
func (c *Cluster) actingSet(pg uint32) []int {
	if c.actEpoch != c.epoch {
		clear(c.actCache)
		c.actEpoch = c.epoch
	}
	if up, ok := c.actCache[pg]; ok {
		return up
	}
	set := c.cmap.PGToOSDs(pg, c.pol.Width())
	up := make([]int, 0, len(set))
	for _, id := range set {
		if !c.down[id] {
			up = append(up, id)
		}
	}
	c.actCache[pg] = up
	return up
}

// RecoveryStats summarizes one RecoverOSD operation.
type RecoveryStats struct {
	PGsRecovered  int
	LogRecoveries int // PGs healed by PG-log replay
	Backfills     int // PGs healed by full object comparison
	ObjectsCopied int
	BytesCopied   int64
	// JournalReplays is the number of journaled-but-unapplied entries the
	// OSD replayed when it restarted after a crash (0 for administrative
	// downs).
	JournalReplays int
	// DegradedPGs is how many PGs were serving without this member during
	// the outage.
	DegradedPGs int
	Duration    sim.Time
}

// RecoverOSD marks the OSD up again and resynchronizes it from its peers
// in simulated time, returning when every PG it participates in is
// consistent. Quiescent-cluster wrapper: do not call while the kernel is
// running or while heartbeats are live — use RecoverOSDIn from a process.
func (c *Cluster) RecoverOSD(id int) RecoveryStats {
	var st RecoveryStats
	c.K.Go(fmt.Sprintf("recover.osd%d", id), func(p *sim.Proc) {
		st = c.RecoverOSDIn(p, id)
	})
	c.K.Run(sim.Forever)
	return st
}

// RecoverOSDIn performs recovery from process context, e.g. while the
// workload is still running (degraded writes proceed; recovered PGs catch
// up from their peers).
func (c *Cluster) RecoverOSDIn(p *sim.Proc, id int) RecoveryStats {
	delete(c.down, id)
	c.epoch++
	c.hbNoteUp(id)
	start := p.Now()
	var st RecoveryStats

	target := c.osds[id]
	// A dirty target restarted from a crash: its PG logs were truncated to
	// the durable horizon and may even run ahead of an acked history on
	// phantom sequences, so peer logs cannot describe its delta. Backfill
	// everything it hosts, taking the surviving peer as authoritative.
	dirty := target.Dirty()
	st.JournalReplays = c.lastReplays[id]
	delete(c.lastReplays, id)

	// Peering prologue. This stretch is synchronous (no simulated I/O, no
	// yields), so it completes before any client op can reach the rejoining
	// OSD: for every PG the member set agrees on a common log head — the
	// maximum over all up members, covering both a peer that ran ahead
	// degraded and a crashed target whose replayed journal holds sequences
	// its peers never received — and every member fast-forwards to it, so
	// primary-assigned sequences continue contiguously on all copies
	// whichever member acts as primary next.
	type pgPlan struct {
		pg         uint32
		peer       int
		missed     map[string]bool
		logCovered bool
	}
	var plans []pgPlan
	for pg := uint32(0); pg < c.Params.PGs; pg++ {
		set := c.cmap.PGToOSDs(pg, c.pol.Width())
		inSet := false
		peer := -1
		var peers []int
		for _, o := range set {
			if o == id {
				inSet = true
			} else if !c.down[o] {
				peers = append(peers, o)
				peer = o
			}
		}
		if !inSet || peer < 0 {
			continue
		}
		st.DegradedPGs++
		src := c.osds[peer]
		// Compare the target's applied horizon with the peer's retained
		// log (before adoption rewrites either). If the log covers the
		// gap, recover only the objects it names; otherwise backfill.
		targetHead := target.PGLogApplied(pg)
		peerLog := src.PGLog(pg)
		var missed map[string]bool
		logCovered := !dirty && len(peerLog) > 0 && peerLog[0].Seq <= targetHead+1
		if logCovered {
			missed = make(map[string]bool)
			for _, e := range peerLog {
				if e.Seq > targetHead {
					missed[e.OID] = true
				}
			}
		}
		head := target.PGLogHead(pg)
		for _, pid := range peers {
			if h := c.osds[pid].PGLogHead(pg); h > head {
				head = h
			}
		}
		if head > 0 {
			target.AdoptPGState(pg, head)
			for _, pid := range peers {
				c.osds[pid].AdoptPGState(pg, head)
			}
		}
		// Log heads alone under-count: a sub-op the previous primary fanned
		// out may still sit unprocessed in a peer's queue — or in flight on
		// the wire — invisible to PGLogHead. Floor every member's assignment
		// counter at the maximum assignment horizon over the WHOLE member
		// set, down members included: pgSeq survives a crash precisely so a
		// dead assigner still vouches for sequences it launched (this is
		// interval metadata the monitor would hold, so reading a down
		// member's counter costs no simulated I/O). Whichever member leads
		// this PG next can then never re-assign a sequence that is queued or
		// in flight toward another member's log (the duplicate would break
		// the PG log's strict ordering).
		floor := head
		for _, o := range set {
			if h := c.osds[o].PGSeqHorizon(pg); h > floor {
				floor = h
			}
		}
		if floor > head {
			target.RaisePGSeq(pg, floor)
			for _, pid := range peers {
				c.osds[pid].RaisePGSeq(pg, floor)
			}
		}
		plans = append(plans, pgPlan{pg: pg, peer: peer, missed: missed, logCovered: logCovered})
	}

	// Data motion, in simulated time (the workload may keep running
	// degraded against the now-complete member sets).
	for _, pl := range plans {
		var copied int
		if c.pol.Kind() == redundancy.KindEC {
			copied = c.recoverPGEC(p, pl.pg, id, pl.missed, &st)
		} else {
			copied = c.recoverPG(p, pl.pg, pl.peer, id, pl.missed, &st)
		}
		if copied == 0 {
			continue
		}
		st.PGsRecovered++
		if pl.logCovered {
			st.LogRecoveries++
		} else {
			st.Backfills++
		}
	}
	if dirty {
		target.ClearDirty()
	}
	st.Duration = p.Now() - start
	return st
}

// recoverPG copies stale or missing objects of one PG from srcID to dstID.
// A nil `missed` set means backfill: every object of the PG is compared and
// any version difference triggers a push.
//
// The pushed state is the stamp-wise *union* of the two copies (max stamp
// per extent), not a plain replacement. Replacement would lose data in two
// ways: the source's export sees only applied state, so an acked write
// still sitting in its journal queue would be erased from the
// destination's good copy; and a crashed destination may hold acked
// extents the source missed entirely. The union is safe because extent
// stamps are client-monotonic per offset and every stamp present on any
// replica was journaled from a client attempt that was (or, after retry,
// will be) acked with that same data. Version counters may still disagree
// after a push that raced ongoing writes; that is scrub-visible and
// converged by Repair.
func (c *Cluster) recoverPG(p *sim.Proc, pg uint32, srcID, dstID int, missed map[string]bool, st *RecoveryStats) int {
	src := c.osds[srcID].Store()
	dst := c.osds[dstID].Store()
	var todo []string
	for _, oid := range src.ObjectNames() {
		if crush.ObjectToPG(oid, c.Params.PGs) != pg {
			continue
		}
		if missed != nil && !missed[oid] {
			continue
		}
		if dst.ObjectVersion(oid) != src.ObjectVersion(oid) {
			todo = append(todo, oid)
		}
	}
	sort.Strings(todo)
	if len(todo) == 0 {
		return 0
	}
	done := sim.NewWaitGroup(c.K)
	for _, oid := range todo {
		oid := oid
		srcState, ok := src.ExportObject(oid)
		if !ok {
			continue
		}
		if srcState.Damaged && len(srcState.Rot) == 0 {
			// Coarsely corrupted source: no extent of this copy can be
			// trusted to overwrite anything. Scrub flags it; Repair heals.
			continue
		}
		dstState, _ := dst.ExportObject(oid)
		// Cleanse both sides before the union: rotten extents contribute
		// nothing, but the clean extents of a damaged copy — including an
		// acked degraded write that landed after the rot — always survive.
		state := filestore.UnionState(srcState.Cleansed(), dstState.Cleansed())
		size := state.Size
		if size <= 0 {
			size = 4096
		}
		st.ObjectsCopied++
		st.BytesCopied += size
		done.Add(1)
		c.K.Go(fmt.Sprintf("recover.%s", oid), func(pp *sim.Proc) {
			defer done.Done()
			// Read on the peer, push over the cluster network, install on
			// the rejoining OSD.
			src.Read(pp, oid, 0, size)
			pp.Sleep(c.pushTime(size))
			dst.IngestObject(pp, oid, state)
			if dstState.Damaged {
				// Backfill just overwrote a rotten copy with the cleansed
				// union: a detection and a heal, on the integrity log like
				// any other so time-to-repair accounting stays complete.
				c.noteIntegrity(pp.Now(), dstID, oid, IntegrityFinding)
				c.noteIntegrity(pp.Now(), dstID, oid, IntegrityRepaired)
			}
		})
	}
	done.Wait(p)
	return len(todo)
}

// recoverPGEC rebuilds the rejoining member's shards of one PG by
// reconstruction: instead of copying a whole replica from a single peer, it
// reads k surviving shards, reconstructs the lost one on the target's node
// (GF arithmetic charged via the policy's DecodeCost) and installs it. The
// authoritative state is the stamp-wise union over *all* up in-set peers —
// overlapping outages can leave each survivor missing different writes, so
// a single-peer source would under-recover. An object with fewer than k
// clean contributors is skipped (unrecoverable until more members return;
// the final repair pass converges it).
func (c *Cluster) recoverPGEC(p *sim.Proc, pg uint32, dstID int, missed map[string]bool, st *RecoveryStats) int {
	dst := c.osds[dstID].Store()
	k := c.pol.DataShards()
	var peers []int
	for _, pid := range c.cmap.PGToOSDs(pg, c.pol.Width()) {
		if pid != dstID && !c.down[pid] && !c.osds[pid].Crashed() {
			peers = append(peers, pid)
		}
	}
	if len(peers) < k {
		return 0 // the stripe itself is below k: nothing can be rebuilt yet
	}
	// Work list: any object some peer knows at a version the target lacks.
	names := map[string]bool{}
	for _, pid := range peers {
		for _, oid := range c.osds[pid].Store().ObjectNames() {
			if crush.ObjectToPG(oid, c.Params.PGs) != pg {
				continue
			}
			if missed != nil && !missed[oid] {
				continue
			}
			names[oid] = true
		}
	}
	var todo []string
	for oid := range names { //afvet:allow determinism keys are sorted before use
		var maxV uint64
		for _, pid := range peers {
			if v := c.osds[pid].Store().ObjectVersion(oid); v > maxV {
				maxV = v
			}
		}
		if dst.ObjectVersion(oid) != maxV {
			todo = append(todo, oid)
		}
	}
	sort.Strings(todo)
	if len(todo) == 0 {
		return 0
	}
	done := sim.NewWaitGroup(c.K)
	copied := 0
	for _, oid := range todo {
		oid := oid
		// Union the cleansed shard states of every contributing peer; a
		// coarsely corrupted copy contributes nothing.
		var state filestore.ObjectState
		contributed := 0
		var readers []int
		for _, pid := range peers {
			ps, ok := c.osds[pid].Store().ExportObject(oid)
			if !ok || (ps.Damaged && len(ps.Rot) == 0) {
				continue
			}
			if contributed == 0 {
				state = ps.Cleansed()
			} else {
				state = filestore.UnionState(state, ps.Cleansed())
			}
			contributed++
			if len(readers) < k {
				readers = append(readers, pid)
			}
		}
		if contributed < k {
			continue // fewer than k clean shards: unrecoverable right now
		}
		dstState, _ := dst.ExportObject(oid)
		state = filestore.UnionState(state, dstState.Cleansed())
		size := state.Size // member sizes are shard-scaled already
		if size <= 0 {
			size = 4096
		}
		copied++
		st.ObjectsCopied++
		st.BytesCopied += size
		done.Add(1)
		c.K.Go(fmt.Sprintf("recover.%s", oid), func(pp *sim.Proc) {
			defer done.Done()
			// k shard reads on the survivors, k shards over the cluster
			// network, reconstruction on the rejoining node, local install.
			for _, pid := range readers {
				c.osds[pid].Store().Read(pp, oid, 0, size)
			}
			pp.Sleep(c.pushTime(int64(k) * size))
			c.nodes[dstID/c.Params.OSDsPerNode].Use(pp, c.pol.DecodeCost(size*int64(k), 1))
			dst.IngestObject(pp, oid, state)
			if dstState.Damaged {
				c.noteIntegrity(pp.Now(), dstID, oid, IntegrityFinding)
				c.noteIntegrity(pp.Now(), dstID, oid, IntegrityRepaired)
			}
		})
	}
	done.Wait(p)
	return copied
}

// pushTime is the time to move bytes between two OSDs over the cluster
// network: one propagation delay plus serialization at NIC bandwidth.
func (c *Cluster) pushTime(bytes int64) sim.Time {
	return c.Net.Params.Propagation + sim.Time(bytes*int64(sim.Second)/c.Net.Params.BytesPerSec)
}
