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

// params configures the logger cost model.
type params struct {
	// entryCPU is the string-formatting CPU cost per log entry.
	entryCPU sim.Time
	// entryAllocs is the allocation count per formatted entry.
	entryAllocs int
	// cachedEntryCPU / cachedEntryAllocs apply when the log cache already
	// holds the entry's formatted string.
	cachedEntryCPU    sim.Time
	cachedEntryAllocs int
	// submitCPU is the cost paid by the submitting thread per Log call.
	submitCPU sim.Time
	// threads is the logger thread count (Sync mode forces 1).
	threads int
	// logCache enables the formatted-entry cache.
	logCache bool
	// memoryLimit bounds queued entries in Async mode; beyond it, entries
	// are dropped (bounded memory, as §3.3 requires). <=0 means unbounded.
	memoryLimit int
}

// communityParams is the stock single-thread synchronous logger.
func communityParams() params {
	return params{
		entryCPU:    2500 * sim.Nanosecond,
		entryAllocs: 6,
		submitCPU:   300 * sim.Nanosecond,
		threads:     1,
	}
}

// afcephParams is the non-blocking multi-thread logger with log cache.
func afcephParams() params {
	p := communityParams()
	p.threads = 4
	p.logCache = true
	p.cachedEntryCPU = 400 * sim.Nanosecond
	p.memoryLimit = 16384
	return p
}

// Stats aggregates logger activity.
type Stats struct {
	Entries   stats.Counter
	Dropped   stats.Counter
	CacheHits stats.Counter
	// BlockTime is virtual time submitters spent waiting (Sync mode).
	BlockTime stats.Counter
}

type batch struct {
	site  int
	count int
	// call continues the Sync submitter; Async batches carry none.
	call *Call
}

// Logger is one OSD's log subsystem.
type Logger struct {
	k      *sim.Kernel
	name   string
	node   *cpumodel.Node
	mode   Mode
	params params
	q      *sim.Queue[batch]
	cache  []bool // by call site: the site's entry format is cached
	stats  Stats
	// idle holds the logger threads waiting for a batch, longest-waiting
	// first: Log wakes the head.
	idle []*thread
	// callFree recycles the Calls Sync-mode Log waits on: once Await
	// returns, the logger thread is done with the Call.
	callFree []*Call
}

// thread is one logger thread, run as a chain of kernel callbacks: take a
// batch, charge its entries, release the batch's Sync submitter, repeat;
// with the queue empty it joins the idle list.
type thread struct {
	l    *Logger
	b    batch
	work cpumodel.Work // the CPU charge in flight
}

// New creates a logger charging CPU to node, with the cost model of its
// mode: Sync is the stock logger, Async AFCeph's.
func New(k *sim.Kernel, name string, node *cpumodel.Node, mode Mode) *Logger {
	p := communityParams()
	if mode == Async {
		p = afcephParams()
	}
	return newLogger(k, name, node, mode, p)
}

// newLogger is New with an explicit cost model.
func newLogger(k *sim.Kernel, name string, node *cpumodel.Node, mode Mode, p params) *Logger {
	l := &Logger{
		k:      k,
		name:   name,
		node:   node,
		mode:   mode,
		params: p,
	}
	if mode == Off {
		return l
	}
	threads := p.threads
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

// QueueLen returns pending batches (Async backlog).
func (l *Logger) QueueLen() int {
	if l.q == nil {
		return 0
	}
	return l.q.Len()
}

// Log emits count entries from the given call site. In Sync mode the caller
// blocks until the logger thread has processed them, waiting on a pooled
// Call as LogCall's submitter does; in Async mode it pays only submitCPU.
func (l *Logger) Log(p *sim.Proc, site, count int) {
	if l.mode == Off || count <= 0 {
		return
	}
	l.node.Use(p, l.params.submitCPU)
	if l.mode == Async {
		l.submitAsync(site, count)
		return
	}
	var c *Call
	if n := len(l.callFree); n > 0 {
		c = l.callFree[n-1]
		l.callFree = l.callFree[:n-1]
	} else {
		c = &Call{Done: sim.Wake, l: l}
	}
	c.Arg, c.site, c.count = p, site, count
	callSubmitted(c)
	p.Await()
	l.callFree = append(l.callFree, c)
}

// submitAsync queues an Async batch, or drops it past memoryLimit.
func (l *Logger) submitAsync(site, count int) {
	if l.params.memoryLimit > 0 && l.q.Len() >= l.params.memoryLimit {
		l.stats.Dropped.Add(uint64(count))
		return
	}
	l.submit(batch{site: site, count: count})
}

// Call is one Log made by a callback chain (see LogCall). Its owner keeps
// it alive, and may reuse it once Done has run.
type Call struct {
	// Done runs as Done(Arg) when the Log is over. It runs in kernel
	// context and must not block.
	Done func(any)
	Arg  any

	l           *Logger
	site, count int
	t0          sim.Time // Sync: when the batch was submitted
	work        cpumodel.Work
}

// LogCall is Log for callback models: it charges the submit CPU, and in
// Sync mode waits for the logger thread, on behalf of c, then runs c.Done.
// Every event lands in the slot Log's would have used: the logger thread
// continues a Sync submitter where it would fire the submitter's event.
// With nothing to log, Done runs inline, as Log returns at once.
func (l *Logger) LogCall(c *Call, site, count int) {
	if l.mode == Off || count <= 0 {
		c.Done(c.Arg)
		return
	}
	c.l, c.site, c.count = l, site, count
	c.work.Done, c.work.Arg = callSubmitted, c
	l.node.UseCall(&c.work, l.params.submitCPU)
}

func callSubmitted(a any) {
	c := a.(*Call)
	l := c.l
	if l.mode == Sync {
		c.t0 = l.k.Now()
		l.submit(batch{site: c.site, count: c.count, call: c})
		return
	}
	l.submitAsync(c.site, c.count)
	c.Done(c.Arg)
}

// callSynced continues a Sync LogCall once the logger thread has written
// its batch.
func callSynced(a any) {
	c := a.(*Call)
	c.l.stats.BlockTime.Add(uint64(c.l.k.Now() - c.t0))
	c.Done(c.Arg)
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
	cpu := l.params.entryCPU
	allocs := l.params.entryAllocs
	if l.params.logCache {
		for len(l.cache) <= b.site {
			l.cache = append(l.cache, false)
		}
		if l.cache[b.site] {
			cpu = l.params.cachedEntryCPU
			allocs = l.params.cachedEntryAllocs
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
	if t.b.call != nil {
		l.k.AfterCall(0, callSynced, t.b.call)
	}
	t.next()
}
