package cluster

import (
	"fmt"
	"slices"

	"repro/internal/crush"
	"repro/internal/filestore"
	"repro/internal/osd"
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
// participates in. Peering is the OSD's own (osd.Peer): this file picks
// each PG's members from the placement view and reads no PG log. When the
// last up peer's retained PG log covers the missed interval (and the OSD
// went down cleanly), only the logged objects are compared (log-based
// recovery); otherwise the whole PG is compared object-by-object
// (backfill). Either way the data motion is simulated I/O: reads on k
// peers, a network push, a decode and a write on the rejoining OSD
// (recoverPG).
//
// After RecoverOSD completes, ScrubAll must come back clean — the
// regression test that the optimizations kept recovery intact.

// Down reports whether an OSD is failed out.
func (c *Cluster) Down(id int) bool { return c.down[id] }

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

// RecoveryStats summarizes one RecoverOSD operation.
type RecoveryStats struct {
	// PGsRecovered counts the PGs where at least one object was copied;
	// LogRecoveries and Backfills split them by how the work list was
	// built (PG-log replay or full object comparison).
	PGsRecovered  int
	LogRecoveries int
	Backfills     int
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
	c.down[id] = false
	c.epoch++
	c.hbNoteUp(id)
	start := p.Now()
	var st RecoveryStats

	target := c.osds[id]
	// A dirty target restarted from a crash: its PG logs were truncated to
	// the durable horizon and may even run ahead of an acked history on
	// phantom sequences, so peer logs cannot describe its delta. Backfill
	// everything it hosts.
	dirty := target.Dirty()
	st.JournalReplays = c.lastReplays[id]
	c.lastReplays[id] = 0

	// Peering prologue (osd.Peer), synchronous: no simulated I/O and no
	// yields, so it completes for every PG before any client op can reach
	// the rejoining OSD. peers and members are scratch, reused per PG.
	type pgPlan struct {
		pg     uint32
		missed map[string]bool // nil: backfill
	}
	var plans []pgPlan
	var peers, members []*osd.OSD
	for pg := uint32(0); pg < c.Params.PGs; pg++ {
		set := c.CrushSet(pg)
		if !slices.Contains(set, id) {
			continue
		}
		peers, members = peers[:0], members[:0]
		for _, o := range set {
			members = append(members, c.osds[o])
			if o != id && !c.down[o] {
				peers = append(peers, c.osds[o])
			}
		}
		if len(peers) == 0 {
			continue
		}
		st.DegradedPGs++
		plans = append(plans, pgPlan{pg: pg, missed: osd.Peer(pg, target, peers, members, dirty)})
	}

	// Data motion, in simulated time (the workload may keep running
	// degraded against the now-complete member sets).
	for _, pl := range plans {
		if c.recoverPG(p, pl.pg, id, pl.missed, &st) == 0 {
			continue
		}
		st.PGsRecovered++
		if pl.missed != nil {
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

// recoverPG rebuilds dstID's copy of one PG from its peers: the members of
// the PG's CRUSH set other than the target that are neither down nor
// crashed. It is one path for every pool kind; the policy supplies k
// (DataShards, 1 for replication), the push bytes and the decode cost. A
// nil missed set means backfill: every object of the PG is compared.
// Each stale object receives the clean union of every peer and of the
// target itself (DESIGN.md, "Recovery convergence"); an object with fewer
// than k clean contributors is skipped until more members return. Version
// counters may still disagree after a push that raced ongoing writes;
// Repair converges them. Returns the number of objects copied.
func (c *Cluster) recoverPG(p *sim.Proc, pg uint32, dstID int, missed map[string]bool, st *RecoveryStats) int {
	dst := c.osds[dstID].FileStore()
	k := c.pol.DataShards()
	var peers []int
	for _, pid := range c.CrushSet(pg) {
		if pid != dstID && !c.down[pid] && !c.osds[pid].Crashed() {
			peers = append(peers, pid)
		}
	}
	if len(peers) < k {
		return 0 // below k members: nothing can be rebuilt yet
	}
	// Work list: every object of the PG some peer holds, at a version (the
	// highest over the peers) the target lacks.
	var names []string
	for _, pid := range peers {
		names = c.osds[pid].FileStore().AppendObjectNames(names)
	}
	names = slices.DeleteFunc(names, func(oid string) bool {
		return crush.ObjectToPG(oid, c.Params.PGs) != pg || (missed != nil && !missed[oid])
	})
	slices.Sort(names)
	done := sim.NewWaitGroup(c.K)
	copied := 0
	for _, oid := range slices.Compact(names) {
		var maxV uint64
		for _, pid := range peers {
			maxV = max(maxV, c.osds[pid].FileStore().ObjectVersion(oid))
		}
		if dst.ObjectVersion(oid) == maxV {
			continue
		}
		ms := c.captureObject(oid, peers)
		state, n := cleanUnion(ms)
		if n < k {
			continue // fewer than k clean copies: unrecoverable right now
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
			// Read the first k clean copies, push them over the cluster
			// network, decode on the rejoining node, install.
			for i, n := 0, 0; n < k; i++ {
				if ms[i].usable() {
					c.osds[ms[i].id].FileStore().Read(pp, oid, 0, size)
					n++
				}
			}
			pp.Sleep(c.pushTime(int64(k) * size))
			c.decode(pp, dstID, size)
			dst.IngestObject(pp, oid, state)
			if dstState.Damaged {
				// Recovery just overwrote a rotten copy: a detection and a
				// heal, on the integrity log like any other.
				c.noteIntegrity(pp.Now(), dstID, oid, IntegrityFinding)
				c.noteIntegrity(pp.Now(), dstID, oid, IntegrityRepaired)
			}
		})
	}
	done.Wait(p)
	return copied
}

// decode charges rebuilding one lost member of size bytes from k others on
// OSD id's node. Replication decodes nothing and schedules no event.
func (c *Cluster) decode(p *sim.Proc, id int, size int64) {
	if cost := c.pol.DecodeCost(size*int64(c.pol.DataShards()), 1); cost > 0 {
		c.nodes[id/c.Params.OSDsPerNode].Use(p, cost)
	}
}

// pushTime is the time to move bytes between two OSDs over the cluster
// network: one propagation delay plus serialization at NIC bandwidth.
func (c *Cluster) pushTime(bytes int64) sim.Time {
	return c.Net.Params.Propagation + sim.Time(bytes*int64(sim.Second)/c.Net.Params.BytesPerSec)
}
