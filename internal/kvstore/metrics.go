package kvstore

import "repro/internal/metrics"

// RegisterMetrics exposes the LSM's counters on a perf-dump subsystem.
func (db *DB) RegisterMetrics(s *metrics.Subsystem) {
	s.Counter("puts", &db.stats.Puts)
	s.Counter("deletes", &db.stats.Deletes)
	s.Counter("user_bytes", &db.stats.UserBytes)
	s.Counter("wal_bytes", &db.stats.WALBytes)
	s.Counter("flush_bytes", &db.stats.FlushBytes)
	s.Counter("compaction_read_bytes", &db.stats.CompactionReadBytes)
	s.Counter("compaction_write_bytes", &db.stats.CompactionWriteBytes)
	s.Counter("compactions", &db.stats.Compactions)
	s.Counter("stalls", &db.stats.Stalls)
	s.Counter("stall_time_ns", &db.stats.StallTime)
	s.Gauge("write_amplification", db.stats.WriteAmplification)
	s.Gauge("l0_tables", func() float64 { return float64(db.L0Tables()) })
}
