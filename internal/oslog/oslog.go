// Package oslog models the OSD's debug logging subsystem.
//
// Stock Ceph funnels every log entry through a single logging thread, and
// the submitting I/O thread waits for its entry to be accepted — invisible
// behind HDD latencies, but on flash "the logging sometimes takes longer
// than the actual I/O itself" (§3.3). The paper's fix: make in-memory
// logging non-blocking, give the logger multiple threads so flash-era
// parallelism applies, and add a log-entry cache so repeated sites don't
// re-do string formatting and allocation.
//
// Three modes are modelled:
//
//	Off   — logging disabled (the paper's "No log" experiment).
//	Sync  — community behaviour: submit blocks until the single logging
//	        thread has processed the entry batch.
//	Async — AFCeph behaviour: submit enqueues and returns; a pool of
//	        logger threads drains in the background.
package oslog

import (
	"repro/internal/cpumodel"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Mode selects the logging behaviour.
type Mode int

// Logging modes.
const (
	Off Mode = iota
	Sync
	Async
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case Sync:
		return "sync"
	case Async:
		return "async"
	default:
		return "unknown"
	}
}

// Params configures the logger cost model.
type Params struct {
	// EntryCPU is the string-formatting CPU cost per log entry.
	EntryCPU sim.Time
	// EntryAllocs is the allocation count per formatted entry.
	EntryAllocs int
	// CachedEntryCPU / CachedEntryAllocs apply when the log cache already
	// holds the entry's formatted string.
	CachedEntryCPU    sim.Time
	CachedEntryAllocs int
	// SubmitCPU is the cost paid by the submitting thread per Log call.
	SubmitCPU sim.Time
	// Threads is the logger thread count (Sync mode forces 1).
	Threads int
	// LogCache enables the formatted-entry cache.
	LogCache bool
	// MemoryLimit bounds queued entries in Async mode; beyond it, entries
	// are dropped (bounded memory, as §3.3 requires). <=0 means unbounded.
	MemoryLimit int
	// RotateEvery rotates the log file after that many entries (<=0 never
	// rotates, the historical behaviour). Rotation is charged to the logger
	// thread, never the submitter, so the non-blocking property holds.
	RotateEvery int
	// RotateCPU is the logger-thread cost of one rotation.
	RotateCPU sim.Time
}

// CommunityParams returns the stock single-thread synchronous logger.
func CommunityParams() Params {
	return Params{
		EntryCPU:    2500 * sim.Nanosecond,
		EntryAllocs: 6,
		SubmitCPU:   300 * sim.Nanosecond,
		Threads:     1,
		LogCache:    false,
	}
}

// AFCephParams returns the non-blocking multi-thread logger with log cache.
func AFCephParams() Params {
	p := CommunityParams()
	p.Threads = 4
	p.LogCache = true
	p.CachedEntryCPU = 400 * sim.Nanosecond
	p.CachedEntryAllocs = 0
	p.MemoryLimit = 16384
	return p
}

// Stats aggregates logger activity.
type Stats struct {
	Entries   stats.Counter
	Dropped   stats.Counter
	CacheHits stats.Counter
	// BlockTime is virtual time submitters spent waiting (Sync mode).
	BlockTime stats.Counter
	// Rotations counts log-file rotations (RotateEvery > 0 only).
	Rotations stats.Counter
}

type batch struct {
	site  int
	count int
	done  *sim.Event // non-nil in Sync mode
}

// Logger is one OSD's log subsystem.
type Logger struct {
	k      *sim.Kernel
	name   string
	node   *cpumodel.Node
	mode   Mode
	params Params
	q      *sim.Queue[batch]
	cache  map[int]bool
	stats  Stats
	// idle holds the logger threads waiting for a batch, longest-waiting
	// first: Log wakes the head.
	idle []*thread
	// sinceRotate counts entries written since the last rotation; logger
	// threads run one-at-a-time under the sim kernel, so a plain field is
	// race-free and keeps Rotations == floor(Entries/RotateEvery) exactly.
	sinceRotate int
	// evFree recycles Sync-mode completion events: once Wait returns the
	// event has fired and nothing else references it.
	evFree []*sim.Event
}

// thread is one logger thread, run as a chain of kernel callbacks: take a
// batch, charge its entries, rotate while due, fire the batch's done
// event, repeat; with the queue empty it joins the idle list.
type thread struct {
	l    *Logger
	b    batch
	work cpumodel.Work // the CPU charge in flight
}

// New creates a logger charging CPU to node.
func New(k *sim.Kernel, name string, node *cpumodel.Node, mode Mode, params Params) *Logger {
	l := &Logger{
		k:      k,
		name:   name,
		node:   node,
		mode:   mode,
		params: params,
		cache:  make(map[int]bool),
	}
	if mode == Off {
		return l
	}
	threads := params.Threads
	if mode == Sync || threads < 1 {
		threads = 1
	}
	l.q = sim.NewQueue[batch](k, name+".logq", 0)
	for i := 0; i < threads; i++ {
		t := &thread{l: l}
		t.work.Arg = t
		k.AfterCall(0, threadNext, t)
	}
	return l
}

// Mode returns the active mode.
func (l *Logger) Mode() Mode { return l.mode }

// Stats returns live statistics.
func (l *Logger) Stats() *Stats { return &l.stats }

// QueueLen returns pending batches (Async backlog).
func (l *Logger) QueueLen() int {
	if l.q == nil {
		return 0
	}
	return l.q.Len()
}

// Log emits count entries from the given call site. In Sync mode the caller
// blocks until the logger thread has processed them; in Async mode it pays
// only SubmitCPU.
func (l *Logger) Log(p *sim.Proc, site, count int) {
	if l.mode == Off || count <= 0 {
		return
	}
	l.node.Use(p, l.params.SubmitCPU)
	switch l.mode {
	case Sync:
		done := l.getEvent()
		t0 := p.Now()
		l.submit(batch{site: site, count: count, done: done})
		done.Wait(p)
		l.stats.BlockTime.Add(uint64(p.Now() - t0))
		done.Reset()
		l.evFree = append(l.evFree, done)
	case Async:
		if l.params.MemoryLimit > 0 && l.q.Len() >= l.params.MemoryLimit {
			l.stats.Dropped.Add(uint64(count))
			return
		}
		l.submit(batch{site: site, count: count})
	}
}

// submit queues b and wakes the longest-idle logger thread.
func (l *Logger) submit(b batch) {
	l.q.TryPush(b) // unbounded: never fails
	if len(l.idle) > 0 {
		t := l.idle[0]
		l.idle = append(l.idle[:0], l.idle[1:]...)
		l.k.AfterCall(0, threadNext, t)
	}
}

func (l *Logger) getEvent() *sim.Event {
	if n := len(l.evFree); n > 0 {
		ev := l.evFree[n-1]
		l.evFree = l.evFree[:n-1]
		return ev
	}
	return sim.NewEvent(l.k)
}

func threadNext(a any) { a.(*thread).next() }

// next takes the next batch and charges its entries, or, with the queue
// empty, puts the thread at the back of the idle list (a thread woken for
// a batch another thread took re-queues there too).
func (t *thread) next() {
	l := t.l
	b, ok := l.q.TryPop()
	if !ok {
		l.idle = append(l.idle, t)
		return
	}
	t.b = b
	cpu := l.params.EntryCPU
	allocs := l.params.EntryAllocs
	if l.params.LogCache {
		if l.cache[b.site] {
			cpu = l.params.CachedEntryCPU
			allocs = l.params.CachedEntryAllocs
			l.stats.CacheHits.Add(uint64(b.count))
		} else {
			l.cache[b.site] = true
		}
	}
	t.work.Done = threadCharged
	l.node.UseCall(&t.work, cpu*sim.Time(b.count)+l.node.AllocCost(allocs*b.count))
}

func threadCharged(a any) {
	t := a.(*thread)
	l := t.l
	l.stats.Entries.Add(uint64(t.b.count))
	if l.params.RotateEvery > 0 {
		l.sinceRotate += t.b.count
	}
	t.rotate()
}

// rotate charges the next due rotation or, with none due, completes the
// batch and moves on. Rotations are shared by all threads: another thread
// may take a due rotation while this one waits for a core.
func (t *thread) rotate() {
	l := t.l
	if l.params.RotateEvery > 0 && l.sinceRotate >= l.params.RotateEvery {
		l.sinceRotate -= l.params.RotateEvery
		t.work.Done = threadRotated
		l.node.UseCall(&t.work, l.params.RotateCPU)
		return
	}
	if t.b.done != nil {
		t.b.done.Fire()
	}
	t.next()
}

func threadRotated(a any) {
	t := a.(*thread)
	t.l.stats.Rotations.Inc()
	t.rotate()
}
