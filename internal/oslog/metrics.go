package oslog

import "repro/internal/metrics"

// RegisterMetrics exposes the logger's counters on a perf subsystem.
func (l *Logger) RegisterMetrics(s *metrics.Subsystem) {
	s.Counter("entries", &l.stats.Entries)
	s.Counter("dropped", &l.stats.Dropped)
	s.Counter("cache_hits", &l.stats.CacheHits)
	s.Counter("block_time_ns", &l.stats.BlockTime)
	s.Gauge("queue_len", func() float64 { return float64(l.QueueLen()) })
}
