// Package core implements the paper's primary contribution as reusable
// concurrency primitives over the simulation kernel:
//
//   - ShardLocks: per-PG coarse-grained locks with contention statistics
//     (the paper keeps Ceph's PG lock scheme — it protects recovery and
//     ordering — and attacks the time spent *waiting* on it instead).
//   - Pool: a worker pool over a ready queue of shard-tagged items, each
//     processed under its shard's lock; every worker is a callback
//     machine. It runs the OP_WQ, where with the pending queue (§3.1,
//     Fig. 5) an op whose PG lock is held parks in a per-PG FIFO and the
//     worker moves on, preserving per-PG order while keeping workers
//     utilized; the dedicated batching completion thread (§3.1, Fig. 6),
//     where one lock acquisition covers a whole batch of a PG's
//     commit/applied work; and the community single finisher.
//   - ThrottleConfig: the throttle policy (§3.2) expressed in Ceph's own
//     parameter names, with HDD-era defaults and the SSD-sized values the
//     paper derives from the 30K IOPS sustained capability of one block
//     device.
package core

import (
	"repro/internal/sim"
)

// ShardLocks is a lazily-populated set of per-shard (per-PG) mutexes,
// indexed by shard.
type ShardLocks struct {
	k     *sim.Kernel
	name  string
	locks []*sim.Mutex
	// block is the current allocation chunk: shard mutexes live for the
	// table's whole lifetime, so they are carved from arrays instead of
	// allocated one-by-one (a cluster instantiates OSDs*PGs of them). A
	// mutex never moves, so its pointer stays valid as the table grows.
	block []sim.Mutex
}

// NewShardLocks creates the lock table.
func NewShardLocks(k *sim.Kernel, name string) *ShardLocks {
	return &ShardLocks{k: k, name: name}
}

// Get returns the lock for a shard, creating it on first use. All shards
// share the table's name (per-shard names cost a Sprintf per lock and are
// only ever read back in debugging).
func (s *ShardLocks) Get(shard int) *sim.Mutex {
	for len(s.locks) <= shard {
		s.locks = append(s.locks, nil)
	}
	m := s.locks[shard]
	if m == nil {
		if len(s.block) == 0 {
			s.block = make([]sim.Mutex, 32)
		}
		m = &s.block[0]
		s.block = s.block[1:]
		*m = sim.MakeMutex(s.k, s.name)
		s.locks[shard] = m
	}
	return m
}

// AggregateStats sums contention statistics across all shards.
func (s *ShardLocks) AggregateStats() sim.MutexStats {
	var agg sim.MutexStats
	for _, m := range s.locks {
		if m == nil {
			continue
		}
		st := m.Stats()
		agg.Acquires += st.Acquires
		agg.Contended += st.Contended
		agg.WaitTime += st.WaitTime
		agg.HoldTime += st.HoldTime
		if st.MaxWait > agg.MaxWait {
			agg.MaxWait = st.MaxWait
		}
	}
	return agg
}
