package afceph

import (
	"fmt"

	"repro/internal/cluster"
)

// RecoveryReport summarizes a RecoverOSD run.
type RecoveryReport struct {
	// PGsRecovered counts the PGs where at least one object was copied,
	// split into LogRecoveries (PG-log replay) and Backfills (full object
	// comparison).
	PGsRecovered  int
	LogRecoveries int
	Backfills     int
	ObjectsCopied int
	BytesCopied   int64
	// JournalReplays counts journaled-but-unapplied entries replayed when
	// the OSD restarted after a crash (0 for administrative downs).
	JournalReplays int
	// DegradedPGs is how many PGs served without this member during the
	// outage.
	DegradedPGs int
	DurationMs  float64
}

// String renders a one-line summary.
func (r RecoveryReport) String() string {
	return fmt.Sprintf("recovered %d PGs (%d log-based, %d backfill, %d degraded): %d objects / %.1f MB, %d journal replays, in %.1f ms",
		r.PGsRecovered, r.LogRecoveries, r.Backfills, r.DegradedPGs,
		r.ObjectsCopied, float64(r.BytesCopied)/(1<<20), r.JournalReplays, r.DurationMs)
}

func reportFromStats(st cluster.RecoveryStats) RecoveryReport {
	return RecoveryReport{
		PGsRecovered:   st.PGsRecovered,
		LogRecoveries:  st.LogRecoveries,
		Backfills:      st.Backfills,
		ObjectsCopied:  st.ObjectsCopied,
		BytesCopied:    st.BytesCopied,
		JournalReplays: st.JournalReplays,
		DegradedPGs:    st.DegradedPGs,
		DurationMs:     float64(st.Duration) / 1e6,
	}
}

// FailOSD administratively marks an OSD down: clients route around it (the
// next up OSD in the CRUSH set acts as primary) and primaries stop
// replicating to it (degraded writes). The daemon keeps running, so ops it
// already accepted still complete. Safe mid-workload when the cluster was
// built with Config.OpTimeoutMs > 0 (clients resend to the new acting
// primary); without a timeout, fail between workloads, not during one,
// since ops addressed to the down OSD would otherwise wait forever.
func (c *Cluster) FailOSD(id int) { c.inner.FailOSD(id) }

// CrashOSD kills an OSD daemon at the current instant and marks it down:
// in-flight ops, queued work and un-journaled writes are lost; the NVRAM
// journal and filestore survive. RestartOSD replays the journal so no
// acked write is lost.
func (c *Cluster) CrashOSD(id int) { c.inner.CrashOSD(id) }

// RestartOSD reboots a crashed OSD, replaying its retained journal into
// the filestore. The OSD stays down in the map until RecoverOSD. Returns
// the number of journal entries replayed. Quiescent-cluster call — from
// scripted I/O use Ctx.RestartOSD.
func (c *Cluster) RestartOSD(id int) int { return c.inner.RestartOSD(id) }

// OSDDown reports whether the OSD is failed out.
func (c *Cluster) OSDDown(id int) bool { return c.inner.Down(id) }

// RecoverOSD brings a failed OSD back and resynchronizes it from its
// peers (PG-log replay where the retained logs cover the outage, backfill
// otherwise). The data motion runs in simulated time. Quiescent-cluster
// call — from scripted I/O use Ctx.RecoverOSD.
func (c *Cluster) RecoverOSD(id int) RecoveryReport {
	return reportFromStats(c.inner.RecoverOSD(id))
}

// DownsDetected reports how many OSD failures the heartbeat monitor
// detected on its own (zero when heartbeats are disabled or every down was
// administrative).
func (c *Cluster) DownsDetected() uint64 { return c.inner.DownsDetected() }

// StopScrub shuts down the background scrub scheduler so the simulation
// can drain. Required at the end of any scripted run on a cluster built
// with a positive Config.Scrub.Interval; safe to call when scrub is off.
func (c *Cluster) StopScrub() { c.inner.StopScrub() }

// ScrubReport summarizes what the background scrub scheduler did.
type ScrubReport struct {
	Rounds, PGsScrubbed, ObjectsScrubbed uint64
	DeepReads, BytesRead, Yields         uint64
	Findings, Repairs, Deferred          uint64
}

// ScrubStats returns the background scheduler's counters (all zero when
// Config.Scrub.Interval is 0).
func (c *Cluster) ScrubStats() ScrubReport {
	st := c.inner.ScrubStats()
	return ScrubReport{
		Rounds:          st.Rounds.Value(),
		PGsScrubbed:     st.PGsScrubbed.Value(),
		ObjectsScrubbed: st.ObjectsScrubbed.Value(),
		DeepReads:       st.DeepReads.Value(),
		BytesRead:       st.BytesRead.Value(),
		Yields:          st.Yields.Value(),
		Findings:        st.Findings.Value(),
		Repairs:         st.Repairs.Value(),
		Deferred:        st.Deferred.Value(),
	}
}

// RestartOSD reboots a crashed OSD from inside a scripted run; the journal
// replay I/O advances this script's virtual clock.
func (ctx *Ctx) RestartOSD(id int) int { return ctx.c.inner.RestartOSDIn(ctx.p, id) }

// RecoverOSD resynchronizes a down OSD from inside a scripted run, e.g.
// while the workload keeps going (writes proceed degraded and the
// recovered PGs catch up from their peers).
func (ctx *Ctx) RecoverOSD(id int) RecoveryReport {
	return reportFromStats(ctx.c.inner.RecoverOSDIn(ctx.p, id))
}

// StopHeartbeats shuts down the failure detector so the simulation can
// drain. Required at the end of any scripted run on a cluster built with
// Config.HeartbeatMs > 0; safe to call when heartbeats are off.
func (ctx *Ctx) StopHeartbeats() { ctx.c.inner.StopHeartbeats() }

// Scrub runs the cluster-wide consistency check and returns human-readable
// findings: replication placement, replica version agreement, deep-scrub
// data comparison (Verify mode), and PG-log recovery invariants. Empty
// means healthy.
func (c *Cluster) Scrub() []string {
	var out []string
	for _, inc := range c.inner.ScrubAll() {
		out = append(out, fmt.Sprintf("object %s (pg %d): %s", inc.OID, inc.PG, inc.Detail))
	}
	out = append(out, c.inner.ScrubPGLogs()...)
	return out
}
