package core

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// Completion is deferred PG-lock work produced by a commit/applied/ack
// event. At is stamped by Defer so the worker can attribute dispatch
// queueing delay.
type Completion struct {
	Shard int
	// Fn does the work with the shard's lock held. It runs in kernel
	// context and calls done(arg) once the work is over, inline or from a
	// later callback.
	Fn func(done func(any), arg any)
	At sim.Time
}

// CompletionWorkerStats reports batching effectiveness.
type CompletionWorkerStats struct {
	Completions  stats.Counter
	Batches      stats.Counter
	LockAcquires stats.Counter
}

// CompletionWorker is the dedicated thread of §3.1/Fig. 6: completion
// events defer their PG-lock work here, and the worker opportunistically
// batches everything queued, grouping by shard so each shard's lock is
// taken once per batch ("multiple completion per PG can be processed at
// once"). The thread is a callback machine: it waits on its queue with
// PopCall and on a shard lock with LockCall, in the event slots where the
// thread would resume.
type CompletionWorker struct {
	k        *sim.Kernel
	locks    *ShardLocks
	q        *sim.Queue[Completion]
	batchMax int
	stats    CompletionWorkerStats

	// QueueDelay, when set, records how long each completion waited
	// between Defer and the start of its batch (observation only).
	QueueDelay *stats.Histogram

	// The batch in service, grouped by shard in first-seen order. The
	// group slices are reused across batches, so a steady stream of
	// completions is processed without allocating.
	groups  []shardGroup
	ngroups int
	gi, ci  int  // the group and completion in service
	locked  bool // groups[gi]'s lock is held or requested
	inFn    bool // inside a Fn call: a Fn that completes inline is seen here
}

// shardGroup is one shard's completions of a batch, in arrival order.
type shardGroup struct {
	shard int
	cs    []Completion
}

// NewCompletionWorker creates the worker state; call Start to run it.
// batchMax bounds how many completions one batch collects (<= 0 means 64).
func NewCompletionWorker(k *sim.Kernel, name string, locks *ShardLocks, batchMax int) *CompletionWorker {
	if batchMax <= 0 {
		batchMax = 64
	}
	return &CompletionWorker{
		k:        k,
		locks:    locks,
		q:        sim.NewQueue[Completion](k, name+".compq", 0),
		batchMax: batchMax,
	}
}

// Stats returns live statistics.
func (w *CompletionWorker) Stats() *CompletionWorkerStats { return &w.stats }

// Defer queues PG-lock work. The queue is unbounded, so Defer never
// blocks and may be called from kernel context.
func (w *CompletionWorker) Defer(c Completion) {
	c.At = w.k.Now()
	w.q.TryPush(c)
}

// Start starts the worker at the current instant, in the event slot where
// a process spawned now would start.
func (w *CompletionWorker) Start() { w.k.AfterCall(0, compRun, w) }

func compRun(a any) { a.(*CompletionWorker).run() }

func compLocked(a any) {
	w := a.(*CompletionWorker)
	w.stats.LockAcquires.Inc()
	w.run()
}

func compFnDone(a any) {
	w := a.(*CompletionWorker)
	if w.inFn {
		w.inFn = false // completed inline: run goes on
		return
	}
	w.run()
}

// run serves the batch until it has to wait: for a shard lock, for a
// completion's work, or for the next batch.
func (w *CompletionWorker) run() {
	for {
		if w.gi == w.ngroups {
			if !w.takeBatch() {
				return
			}
			continue
		}
		g := &w.groups[w.gi]
		if !w.locked {
			w.locked = true
			if !w.locks.Get(g.shard).LockCall(compLocked, w) {
				return
			}
			w.stats.LockAcquires.Inc()
		}
		if w.ci < len(g.cs) {
			c := g.cs[w.ci]
			w.ci++
			w.inFn = true
			c.Fn(compFnDone, w)
			if w.inFn {
				w.inFn = false
				return // compFnDone goes on
			}
			continue
		}
		clear(g.cs)
		g.cs = g.cs[:0]
		w.gi, w.ci, w.locked = w.gi+1, 0, false
		w.locks.Get(g.shard).UnlockCall(w)
	}
}

// takeBatch collects everything queued, up to batchMax, into shard groups
// (first-seen order for determinism, arrival order within a shard) and
// reports true; with the queue empty it waits for a completion and
// reports false.
func (w *CompletionWorker) takeBatch() bool {
	w.gi, w.ngroups = 0, 0
	c, ok := w.q.PopCall(compRun, w)
	if !ok {
		return false
	}
	now := w.k.Now()
	n := 0
	for ok {
		w.add(c)
		if w.QueueDelay != nil {
			w.QueueDelay.Record(int64(now - c.At))
		}
		if n++; n == w.batchMax {
			break
		}
		c, ok = w.q.TryPop()
	}
	w.stats.Batches.Inc()
	w.stats.Completions.Add(uint64(n))
	return true
}

// add appends c to its shard's group, opening a group on first sight.
func (w *CompletionWorker) add(c Completion) {
	for i := 0; i < w.ngroups; i++ {
		if w.groups[i].shard == c.Shard {
			w.groups[i].cs = append(w.groups[i].cs, c)
			return
		}
	}
	if w.ngroups == len(w.groups) {
		w.groups = append(w.groups, shardGroup{})
	}
	g := &w.groups[w.ngroups]
	w.ngroups++
	g.shard = c.Shard
	g.cs = append(g.cs, c)
}

// ThrottleConfig carries Ceph's rate-limiting parameters (§3.2). The two
// that matter are filestore_queue_max_ops — the cap on operations between
// journal submission and filestore apply — and osd_client_message_cap —
// the cap on in-flight client messages per OSD.
type ThrottleConfig struct {
	FilestoreQueueMaxOps int64
	OSDClientMessageCap  int64
}

// HDDThrottles returns the stock defaults, sized for spinning disks. On
// flash they are the bottleneck: the filestore drains 30K IOPS but only 50
// ops may be queued toward it.
func HDDThrottles() ThrottleConfig {
	return ThrottleConfig{
		FilestoreQueueMaxOps: 50,
		OSDClientMessageCap:  100,
	}
}

// SSDThrottles returns the paper's tuned values, derived from the ~30K
// sustained IOPS of one 3-SSD block device: deep enough to cover the
// journal->filestore pipeline at full device speed, shallow enough to keep
// bounded memory and latency.
func SSDThrottles() ThrottleConfig {
	return ThrottleConfig{
		FilestoreQueueMaxOps: 3000,
		OSDClientMessageCap:  5000,
	}
}
