package core

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// PoolStats reports how a pool's workers spent their time.
type PoolStats struct {
	Taken        stats.Counter // items taken off the ready queue
	Batches      stats.Counter // takes
	Processed    stats.Counter // items fully processed
	Deferred     stats.Counter // items parked in a pending queue
	Blocked      stats.Counter // lock requests that found the shard lock held
	LockAcquires stats.Counter // shard locks taken
}

// Pool is a set of workers sharing one ready queue of shard-tagged items,
// where processing an item requires that shard's lock. It is every OSD
// thread that serves PG-locked work:
//
//   - the OP_WQ: N workers, one item per take. UsePending selects the
//     paper's pending queue (§3.1, Fig. 5): instead of a worker blocking
//     on a held shard lock, the item is appended to that shard's FIFO
//     pending queue and the worker takes the next ready item. The lock
//     holder drains the pending queue before and after its own item, so
//     per-shard order is exactly preserved — the property Ceph's recovery
//     and strong consistency require;
//   - the AFCeph completion worker (§3.1, Fig. 6): one worker that takes
//     everything queued, up to its batch size, and groups it by shard, so
//     one lock acquisition covers a shard's whole batch;
//   - the community finisher: one worker, one item per take, that stops
//     at its first take once Stopped reports true.
//
// Each worker is a callback machine: it waits on the ready queue with
// PopCall, on a shard lock with LockCall, and on an item's processing for
// its done callback, in the event slots where a worker process would
// resume.
type Pool[T any] struct {
	k          *sim.Kernel
	locks      *ShardLocks
	ready      *sim.Queue[poolItem[T]]
	process    func(shard int, v T, done func(any), arg any)
	batchMax   int
	usePending bool
	pending    [][]T  // by shard (pending queue on only)
	hooked     []bool // by shard: the lock's unlock hook is installed
	stats      PoolStats

	// QueueDelay, when set, records how long each item waited between
	// Submit and its take (observation only).
	QueueDelay *stats.Histogram
	// Stopped, when set, is asked at each take: once it reports true, the
	// worker drops what it took and stops.
	Stopped func() bool
}

type poolItem[T any] struct {
	shard int
	val   T
	at    sim.Time
	drain bool // wakeup token: try to drain the shard's pending queue
}

// NewPool creates a pool whose workers take up to batchMax items at a
// time; call Start to run them. process does an item's work with its
// shard's lock held, in kernel context, and calls done(arg) once the work
// is over, inline or from a later callback. usePending enables the
// pending-queue optimization.
func NewPool[T any](k *sim.Kernel, name string, locks *ShardLocks, batchMax int, usePending bool,
	process func(shard int, v T, done func(any), arg any)) *Pool[T] {
	return &Pool[T]{
		k:          k,
		locks:      locks,
		ready:      sim.NewQueue[poolItem[T]](k, name+".ready", 0),
		process:    process,
		batchMax:   batchMax,
		usePending: usePending,
	}
}

// Start starts n workers at the current instant, in the event slots where
// processes spawned now would start.
func (p *Pool[T]) Start(n int) {
	for i := 0; i < n; i++ {
		p.k.AfterCall(0, workerNext, &worker[T]{p: p})
	}
}

// Stats returns live statistics.
func (p *Pool[T]) Stats() *PoolStats { return &p.stats }

// QueueLen returns ready items not yet taken.
func (p *Pool[T]) QueueLen() int { return p.ready.Len() }

// PendingLen returns the total length of all pending queues.
func (p *Pool[T]) PendingLen() int {
	n := 0
	for _, q := range p.pending {
		n += len(q)
	}
	return n
}

// Submit enqueues an item for its shard. The ready queue is unbounded, so
// Submit never blocks and may be called from kernel context.
func (p *Pool[T]) Submit(shard int, v T) {
	p.ready.TryPush(poolItem[T]{shard: shard, val: v, at: p.k.Now()})
}

// lockFor returns the shard lock, installing (once) with the pending queue
// on the unlock hook that re-arms draining: deferred items would otherwise
// be stranded when the lock's last holder was not one of this pool's
// workers (e.g. the completion worker).
func (p *Pool[T]) lockFor(shard int) *sim.Mutex {
	lock := p.locks.Get(shard)
	if !p.usePending {
		return lock
	}
	for len(p.pending) <= shard {
		p.pending, p.hooked = append(p.pending, nil), append(p.hooked, false)
	}
	if !p.hooked[shard] {
		p.hooked[shard] = true
		lock.SetUnlockHook(func() {
			if len(p.pending[shard]) > 0 {
				p.ready.TryPush(poolItem[T]{shard: shard, drain: true})
			}
		})
	}
	return lock
}

// poolWorker lets the callbacks below continue a worker of any item type
// without a generic function value, which would allocate at each use.
type poolWorker interface {
	run()
	granted()
	processed()
}

func workerNext(a any)   { a.(poolWorker).run() }
func workerLocked(a any) { a.(poolWorker).granted() }
func workerDone(a any)   { a.(poolWorker).processed() }

// worker is one of a pool's workers. It serves its take shard group by
// shard group; the group slices are reused across takes, so a steady
// stream of items is served without allocating.
type worker[T any] struct {
	p       *Pool[T]
	groups  []shardGroup[T]
	ngroups int
	gi, ci  int        // the group in service, and its next item
	pi      int        // the next item of its shard's pending queue
	lock    *sim.Mutex // groups[gi]'s lock, once requested
	inFn    bool       // inside process: an item processed inline is seen here
}

// shardGroup is one shard's items of a take, in arrival order.
type shardGroup[T any] struct {
	shard int
	items []T
}

func (w *worker[T]) granted() {
	w.p.stats.LockAcquires.Inc()
	w.run()
}

func (w *worker[T]) processed() {
	w.p.stats.Processed.Inc()
	if w.inFn {
		w.inFn = false // processed inline: run goes on
		return
	}
	w.run()
}

// run serves the take until it has to wait: for the next take, for a
// shard lock, or for an item's processing.
func (w *worker[T]) run() {
	p := w.p
	for {
		if w.gi == w.ngroups {
			if !w.take() {
				return
			}
			continue
		}
		g := &w.groups[w.gi]
		if w.lock == nil {
			w.lock = p.lockFor(g.shard)
			if p.usePending {
				if !w.lock.TryLock(w) {
					// Park the items; per-shard FIFO keeps order. The lock
					// holder (or a drain token) picks them up.
					p.pending[g.shard] = append(p.pending[g.shard], g.items...)
					p.stats.Deferred.Add(uint64(len(g.items)))
					w.endGroup(g)
					continue
				}
				p.stats.LockAcquires.Inc()
			} else {
				if w.lock.Locked() {
					p.stats.Blocked.Inc()
				}
				if !w.lock.LockCall(workerLocked, w) {
					return
				}
				p.stats.LockAcquires.Inc()
			}
		}
		if v, ok := w.next(g); ok {
			w.inFn = true
			p.process(g.shard, v, workerDone, w)
			if w.inFn {
				w.inFn = false
				return // workerDone goes on
			}
			continue
		}
		lock := w.lock
		w.endGroup(g)
		lock.UnlockCall(w)
	}
}

// endGroup empties g and moves on to the next group.
func (w *worker[T]) endGroup(g *shardGroup[T]) {
	clear(g.items)
	g.items = g.items[:0]
	w.gi, w.ci, w.lock = w.gi+1, 0, nil
}

// next returns the locked group's next item, or false once the group is
// done. With the pending queue on, the shard's parked items run first,
// and again after each of the group's own. The pending queue is walked by
// index and truncated once drained, so its backing array is reused;
// re-reading it each time picks up items other workers park while an
// item is processed, in order.
func (w *worker[T]) next(g *shardGroup[T]) (v T, ok bool) {
	if p := w.p; p.usePending {
		q := p.pending[g.shard]
		if w.pi < len(q) {
			v = q[w.pi]
			var zero T
			q[w.pi] = zero
			w.pi++
			return v, true
		}
		p.pending[g.shard], w.pi = q[:0], 0
	}
	if w.ci < len(g.items) {
		w.ci++
		return g.items[w.ci-1], true
	}
	return v, false
}

// take collects everything queued, up to batchMax, into shard groups
// (first-seen order for determinism, arrival order within a shard) and
// reports true; with the queue empty it waits for an item and reports
// false, as it does once Stopped reports true.
func (w *worker[T]) take() bool {
	p := w.p
	w.gi, w.ngroups = 0, 0
	it, ok := p.ready.PopCall(workerNext, w)
	if !ok || p.Stopped != nil && p.Stopped() {
		return false
	}
	now := p.k.Now()
	n := 0
	for ok {
		w.add(it)
		if p.QueueDelay != nil && !it.drain {
			p.QueueDelay.Record(int64(now - it.at))
		}
		if n++; n == p.batchMax {
			break
		}
		it, ok = p.ready.TryPop()
	}
	p.stats.Batches.Inc()
	p.stats.Taken.Add(uint64(n))
	return true
}

// add appends it to its shard's group, opening a group on first sight; a
// drain token opens a group with no items of its own.
func (w *worker[T]) add(it poolItem[T]) {
	var g *shardGroup[T]
	for i := 0; i < w.ngroups; i++ {
		if w.groups[i].shard == it.shard {
			g = &w.groups[i]
			break
		}
	}
	if g == nil {
		if w.ngroups == len(w.groups) {
			w.groups = append(w.groups, shardGroup[T]{})
		}
		g = &w.groups[w.ngroups]
		w.ngroups++
		g.shard = it.shard
	}
	if !it.drain {
		g.items = append(g.items, it.val)
	}
}
