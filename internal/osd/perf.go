package osd

import (
	"fmt"

	"repro/internal/metrics"
)

// RegisterMetrics publishes this OSD's perf counters on the registry, in
// the spirit of Ceph's `perf dump`: one subsystem per daemon plus child
// subsystems for the journal, filestore, KV store and logger. Registration
// binds live counters from the current daemon generation, so callers build
// the registry on demand at dump time (cluster.Perf) rather than caching it
// across restarts.
func (o *OSD) RegisterMetrics(r *metrics.Registry) {
	prefix := fmt.Sprintf("osd.%d", o.cfg.ID)
	s := r.Sub(prefix)

	s.Counter("write_ops", &o.metrics.WriteOps)
	s.Counter("read_ops", &o.metrics.ReadOps)
	s.Counter("rep_ops", &o.metrics.RepOps)
	s.Counter("acks_sent", &o.metrics.AcksSent)
	s.Counter("crashes", &o.metrics.Crashes)
	s.Counter("journal_replays", &o.metrics.JournalReplays)
	s.Counter("read_repairs", &o.metrics.ReadRepairs)
	s.Counter("rep_reads", &o.metrics.RepReads)
	s.Counter("repair_writes", &o.metrics.RepairWrites)
	s.Counter("eios", &o.metrics.EIOs)
	s.Counter("admit_rejected", &o.metrics.AdmitRejected)
	if o.adm != nil {
		as := o.adm.Stats()
		s.Counter("admit_decisions_accepted", &as.Accepted)
		s.Counter("admit_decisions_rejected", &as.Rejected)
	}

	s.Histogram("opq_delay", o.eng.opwq.QueueDelay)
	s.Histogram("journal_q_delay", o.JournalQDelay)
	s.Histogram("apply_delay", o.ApplyDelay)
	s.Histogram("completion_q_delay", o.CompletionQDelay)

	ds := o.eng.opwq.Stats()
	s.Counter("opq_processed", &ds.Processed)
	s.Counter("opq_deferred", &ds.Deferred)
	s.Counter("opq_blocked", &ds.Blocked)

	s.Gauge("pg_lock_acquires", func() float64 {
		return float64(o.eng.locks.AggregateStats().Acquires)
	})
	s.Gauge("pg_lock_contended", func() float64 {
		return float64(o.eng.locks.AggregateStats().Contended)
	})
	s.Gauge("pg_lock_wait_ns", func() float64 {
		return float64(o.eng.locks.AggregateStats().WaitTime)
	})
	s.Gauge("msgcap_throttled", func() float64 { return float64(o.eng.msgCap.Throttled()) })
	s.Gauge("msgcap_wait_ns", func() float64 { return float64(o.eng.msgCap.WaitTime()) })
	s.Gauge("fs_throttle_throttled", func() float64 { return float64(o.eng.fsThrottle.Throttled()) })
	s.Gauge("fs_throttle_wait_ns", func() float64 { return float64(o.eng.fsThrottle.WaitTime()) })

	if o.cfg.OptCompletionWorker {
		cs := o.eng.comp.Stats()
		s.Counter("comp_completions", &cs.Taken)
		s.Counter("comp_batches", &cs.Batches)
		s.Counter("comp_lock_acquires", &cs.LockAcquires)
	}

	o.store.RegisterMetrics(r, prefix)
	o.fs.RegisterMetrics(r.Sub(prefix + ".filestore"))
	o.fs.DB().RegisterMetrics(r.Sub(prefix + ".kv"))
	o.logger.RegisterMetrics(r.Sub(prefix + ".log"))
}
