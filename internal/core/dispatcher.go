package core

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// DispatcherStats reports how the worker pool spent its time.
type DispatcherStats struct {
	Processed stats.Counter // items fully processed
	Deferred  stats.Counter // items parked in a pending queue
	Blocked   stats.Counter // worker blocks on a held shard lock (community)
}

// Dispatcher is the OP_WQ: a shared ready queue of shard-tagged items
// consumed by a pool of workers, where processing an item requires that
// shard's lock.
//
// UsePending selects the paper's optimization: instead of a worker blocking
// on a held shard lock, the item is appended to that shard's FIFO pending
// queue and the worker takes the next ready item. The lock holder drains
// the pending queue before releasing, so per-shard ordering is exactly
// preserved — the property Ceph's recovery and strong consistency require.
type Dispatcher[T any] struct {
	k          *sim.Kernel
	name       string
	locks      *ShardLocks
	ready      *sim.Queue[dispItem[T]]
	pending    map[int][]T
	usePending bool
	hooked     map[int]bool
	stats      DispatcherStats
	// QueueDelay records time items spend in the ready queue before a
	// worker picks them up.
	QueueDelay *stats.Histogram
}

type dispItem[T any] struct {
	shard int
	val   T
	at    sim.Time
	drain bool // wakeup token: try to drain the shard's pending queue
}

// NewDispatcher creates a dispatcher with an unbounded ready queue;
// usePending enables the pending-queue optimization.
func NewDispatcher[T any](k *sim.Kernel, name string, locks *ShardLocks, usePending bool) *Dispatcher[T] {
	return &Dispatcher[T]{
		k:          k,
		name:       name,
		locks:      locks,
		ready:      sim.NewQueue[dispItem[T]](k, name+".ready", 0),
		pending:    make(map[int][]T),
		usePending: usePending,
		hooked:     make(map[int]bool),
		QueueDelay: stats.NewHistogram(),
	}
}

// lockFor returns the shard lock, installing (once) the unlock hook that
// re-arms pending-queue draining: deferred ops would otherwise be stranded
// when the lock's last holder was not a dispatcher worker (e.g. the
// completion worker or the community finisher).
func (d *Dispatcher[T]) lockFor(shard int) *sim.Mutex {
	lock := d.locks.Get(shard)
	if d.usePending && !d.hooked[shard] {
		d.hooked[shard] = true
		lock.SetUnlockHook(func() {
			if len(d.pending[shard]) > 0 {
				d.ready.TryPush(dispItem[T]{shard: shard, drain: true})
			}
		})
	}
	return lock
}

// Stats returns live statistics.
func (d *Dispatcher[T]) Stats() *DispatcherStats { return &d.stats }

// QueueLen returns ready items not yet picked up.
func (d *Dispatcher[T]) QueueLen() int { return d.ready.Len() }

// PendingLen returns the total length of all pending queues.
func (d *Dispatcher[T]) PendingLen() int {
	n := 0
	for _, q := range d.pending {
		n += len(q)
	}
	return n
}

// Submit enqueues an item for its shard. The ready queue is unbounded, so
// Submit never blocks and may be called from kernel context.
func (d *Dispatcher[T]) Submit(shard int, v T) {
	d.ready.TryPush(dispItem[T]{shard: shard, val: v, at: d.k.Now()})
}

// RunWorker is one OP_WQ worker's main loop; spawn one process per worker.
// process is invoked with the shard lock held.
func (d *Dispatcher[T]) RunWorker(p *sim.Proc, process func(p *sim.Proc, shard int, v T)) {
	for {
		it, ok := d.ready.Pop(p)
		if !ok {
			return
		}
		if !it.drain {
			d.QueueDelay.Record(int64(p.Now() - it.at))
		}
		lock := d.lockFor(it.shard)
		if d.usePending {
			if !lock.TryLock(p) {
				if it.drain {
					continue // the holder will drain, or its unlock re-arms
				}
				// Park the op; per-shard FIFO keeps ordering. The lock
				// holder (or a drain token) picks it up.
				d.pending[it.shard] = append(d.pending[it.shard], it.val)
				d.stats.Deferred.Inc()
				continue
			}
			// Older deferred ops run before this item so per-shard
			// submission order is preserved.
			d.drainPending(p, it.shard, process)
			if !it.drain {
				process(p, it.shard, it.val)
				d.stats.Processed.Inc()
			}
			// Drain ops that parked while we held the lock.
			d.drainPending(p, it.shard, process)
			lock.Unlock(p)
			continue
		}
		if lock.Locked() {
			d.stats.Blocked.Inc()
		}
		lock.Lock(p)
		process(p, it.shard, it.val)
		d.stats.Processed.Inc()
		lock.Unlock(p)
	}
}

// drainPending processes the shard's deferred ops; the caller holds the
// shard lock. It walks the queue by index and truncates it afterwards so
// the backing array is reused, instead of reslicing the head away and
// reallocating on every refill. process may park, during which other
// workers append to the same queue; re-reading the slice each iteration
// picks those up in order, exactly as the old head-popping loop did.
func (d *Dispatcher[T]) drainPending(p *sim.Proc, shard int, process func(p *sim.Proc, shard int, v T)) {
	for i := 0; i < len(d.pending[shard]); i++ {
		q := d.pending[shard]
		v := q[i]
		var zero T
		q[i] = zero
		process(p, shard, v)
		d.stats.Processed.Inc()
	}
	d.pending[shard] = d.pending[shard][:0]
}
