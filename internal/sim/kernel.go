// Package sim implements a deterministic discrete-event simulation (DES)
// kernel whose processes are coroutines.
//
// The kernel maintains virtual time at nanosecond resolution. Exactly one
// process (or event callback) executes at any instant. Run is a plain
// central loop: it pops the next event in (t, seq) order and either runs
// its callback inline (timers and completions scheduled with AfterCall) or
// resumes the process it names. Each process runs on an iter.Pull
// coroutine, so a resume is a direct coroutine switch into the process and
// a block is a switch back to the loop, with no goroutine scheduler in
// between; a finished process's coroutine is reused by the next one
// spawned by Go. Close unwinds whatever is left parked.
//
// Model code that never has to block is a chain of callbacks, continued by
// the Done of each request it makes (Resource.UseCall and AcquireCall,
// Semaphore.AcquireCall, Mutex.LockCall, Cond.WaitCall, Queue.PushCall and
// PopCall, and their users' request types up the stack). A process waits
// on the same requests: it passes Wake as the Done and calls Await, and
// the request's completion switches into the process in the completing
// callback's event slot. A chain never needs a process to
// finish its work, so a process starts only with Go. Event records are
// pooled on a per-kernel free list, and simulated code is still written in
// ordinary blocking style (Sleep, Lock, Push/Pop on queues) without data
// races and without real wall-clock delays.
//
// Events scheduled for the same virtual time fire in schedule order, which
// makes every run bit-for-bit reproducible for a given seed. Every event
// carries a unique key (t, seq), seq counting schedule calls, and Run
// dispatches in key order, so the order depends on the keys alone and not
// on the structure that queues them. Events for the current instant go
// through a FIFO ready ring. Future events wait in a timing wheel of 4,096
// buckets of 256ns each, a window of about 1ms that starts at the bucket
// of the last dispatched future event; each bucket is a list sorted by
// key, and a bitmap finds the next non-empty one. Events beyond the window
// (op timeouts, heartbeats) wait in a 4-ary heap and move into the wheel
// when the window reaches them.
//
// A callback armed with AfterTimer can be cancelled. Cancel marks its
// event dead where it waits: Run drops a dead event when it comes up,
// without counting it, and the far heap drops its dead events as they
// leave it, or all at once, in a rebuild, when they outnumber the live
// ones. The dead event's seq was consumed when it was armed, so every
// other event keeps its key and its order, and a drain still ends at its
// instant, as it would had the callback run and done nothing.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is virtual simulation time in nanoseconds.
type Time int64

// Common durations, in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Forever is a sentinel for Run meaning "run until the event queue drains".
const Forever Time = -1

// String formats a Time with an adaptive unit, e.g. "1.500ms".
func (t Time) String() string {
	switch {
	case t <= -Second: // formatted directly: -t overflows at the least Time
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t < 0:
		return "-" + (-t).String()
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	}
}

// Seconds returns the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

type event struct {
	t    Time
	seq  uint64
	next *event    // the next event of its wheel bucket, in key order
	proc *Proc     // if non-nil, resume this process
	fn   func(any) // else run fn(arg), which must not block
	arg  any
	dead bool // cancelled: dropped, never dispatched
}

// Kernel is a discrete-event simulation executive. The zero value is not
// usable; create kernels with NewKernel.
type Kernel struct {
	now Time
	seq uint64

	// ready is a FIFO ring of events scheduled for the current instant.
	// Time is non-decreasing and seq is assigned in push order, so the ring
	// head is always the ring's (t, seq) minimum.
	ready fifo[*event]

	// Future events wait in the wheel, whose window is the wheelSize
	// buckets from base, or beyond it in far, a 4-ary heap of the events
	// whose bucket is at least base+wheelSize.
	far     []heapSlot
	farDead int   // cancelled events still in far
	base    int64 // the bucket of the last dispatched future event
	// lastDead is the latest instant of a cancelled timer, where a drain
	// ends at the earliest.
	lastDead Time

	free FreeList[event] // event records, for reuse

	// procs holds every spawned process that may not have finished, in
	// spawn order, for Close. Go compacts it when it is full and at least
	// half of it has finished, so it stays within twice the live count.
	procs []*Proc
	idle  []*coro // coroutines of finished processes, for Go to reuse

	running    *Proc
	live       int // spawned processes that have not finished
	inRun      bool
	closed     bool
	nextID     int64
	dispatched uint64
	resumes    uint64

	occupied [wheelSize / 64]uint64 // bit i is set when wheel[i] is not empty
	wheel    [wheelSize]bucket
}

// NewKernel returns a fresh kernel at time zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// DueNow reports whether an event is queued for the current instant: one
// that Run dispatches before any event scheduled from now on. A callback
// that would otherwise continue by AfterCall(0) and schedule nothing after
// it may, when DueNow is false, continue inline instead: no other event
// runs in between, so every later event keeps its order. A cancelled timer
// still queued for the instant counts as due: that answer costs at most an
// event, never an order.
func (k *Kernel) DueNow() bool {
	if k.ready.len() > 0 {
		return true
	}
	i := int(k.now>>bucketShift) & wheelMask
	return k.occupied[i>>6]&(1<<(i&63)) != 0 && k.wheel[i].head.t == k.now
}

// Live returns the number of spawned processes that have not yet finished.
func (k *Kernel) Live() int { return k.live } //afvet:allow unused core/core_test.go and oslog/oslog_test.go check that every proc finishes through it

// Dispatched returns the total number of events executed so far.
func (k *Kernel) Dispatched() uint64 { return k.dispatched }

// Resumes returns how many times a process was switched into to continue:
// by a dispatched event that names it (its start included), or by Wake
// from a callback. A wake-up of a process that had already finished is not
// counted.
func (k *Kernel) Resumes() uint64 { return k.resumes }

// Spawned returns the total number of processes started with Go.
func (k *Kernel) Spawned() uint64 { return uint64(k.nextID) } //afvet:allow unused device/submit_test.go, netsim/net_test.go, osd/read_test.go and oslog/oslog_test.go count the procs a path spawns through it

func (k *Kernel) newEvent(t Time) *event {
	if t < k.now {
		t = k.now
	}
	ev := k.free.Get()
	k.seq++
	ev.t, ev.seq = t, k.seq
	return ev
}

// after returns now+d, saturated at the largest Time: a delay past it
// means never, not a time that wrapped into the past.
func (k *Kernel) after(d Time) Time {
	if d > math.MaxInt64-k.now {
		return math.MaxInt64
	}
	return k.now + d
}

func (k *Kernel) recycle(ev *event) {
	ev.proc, ev.fn, ev.arg = nil, nil, nil
	k.free.Put(ev)
}

func (k *Kernel) enqueue(ev *event) {
	switch {
	case ev.t <= k.now:
		k.ready.push(ev)
	case int64(ev.t>>bucketShift)-k.base < wheelSize:
		k.insert(ev)
	default:
		k.farPush(ev)
	}
}

// schedule queues a resume of p at time t.
func (k *Kernel) schedule(t Time, p *Proc) {
	ev := k.newEvent(t)
	ev.proc = p
	k.enqueue(ev)
}

// AfterCall schedules fn(arg) to run d nanoseconds from now. fn runs in
// kernel context and must not block on simulation primitives; it may
// schedule events and wake processes. arg rides in the pooled event
// record, so hot paths can pass one shared top-level function instead of
// allocating a capturing closure per event.
func (k *Kernel) AfterCall(d Time, fn func(any), arg any) {
	ev := k.newEvent(k.after(d))
	ev.fn, ev.arg = fn, arg
	k.enqueue(ev)
}

// Timer identifies a callback armed with AfterTimer, for Cancel. The zero
// Timer is armed nowhere, and cancelling it is a no-op.
type Timer struct {
	ev  *event
	seq uint64
}

// AfterTimer is AfterCall with a handle: the callback can be cancelled
// until it runs.
func (k *Kernel) AfterTimer(d Time, fn func(any), arg any) Timer {
	ev := k.newEvent(k.after(d))
	ev.fn, ev.arg = fn, arg
	k.enqueue(ev)
	return Timer{ev, ev.seq}
}

// Cancel stops t's callback from running. The event stays queued, dead,
// until the queue drops it: it is not dispatched and not counted by
// Dispatched, and no other event's key changes. A Run(Forever) that
// drains the queue still ends no earlier than its instant, as it would
// had the callback run as a no-op, so the time a simulation ends at does
// not depend on what it cancelled. Cancel releases the callback's
// argument at once. Cancelling a timer that already ran, or a second
// time, is a no-op, as is a handle whose event record has since been
// reused.
func (k *Kernel) Cancel(t Timer) {
	ev := t.ev
	if ev == nil || ev.seq != t.seq || ev.fn == nil {
		return // ran (its record was recycled) or already cancelled
	}
	ev.fn, ev.arg, ev.dead = nil, nil, true
	k.lastDead = max(k.lastDead, ev.t)
	// A queued future event waits in far exactly when its bucket lies
	// beyond the wheel's window: every move of the window migrates the
	// far events it reaches. A ready event is due now, never in far.
	if ev.t > k.now && int64(ev.t>>bucketShift)-k.base >= wheelSize {
		k.farDead++
		if k.farDead > farDeadFloor && 2*k.farDead > len(k.far) {
			k.rebuildFar()
		}
	}
}

// drop recycles a dead event taken off the queue.
func (k *Kernel) drop(ev *event) {
	ev.dead = false
	k.free.Put(ev)
}

// Go spawns a new simulated process that executes fn. The process starts at
// the current virtual time, after the currently running event yields. Go may
// be called both from outside Run (to set up the world) and from running
// processes, but not after Close.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	if k.closed {
		panic("sim: Kernel.Go after Close")
	}
	k.nextID++
	p := &Proc{k: k, id: k.nextID, name: name}
	k.start(p, fn)
	if len(k.procs) == cap(k.procs) && 2*k.live <= len(k.procs) {
		k.compactProcs()
	}
	k.live++
	k.procs = append(k.procs, p)
	k.schedule(k.now, p)
	return p
}

// Wake is the Done of a callback-form request made by a waiting process:
// its argument is the *Proc, which waits in Await. Called from a callback,
// Wake resumes the process at once, in that callback's event slot, and
// counts one resume. Called by the process itself while it runs (the
// request completed inline), it makes the next Await return at once. Wake
// is a no-op on a finished process, and panics while another process runs.
func Wake(a any) {
	p := a.(*Proc)
	if p.done {
		return
	}
	switch k := p.k; k.running {
	case nil:
		k.resume(p)
	case p:
		p.woken = true
	default:
		panic("sim: Wake while another process runs")
	}
}

// resume switches into p to continue it, counting one resume, unless p
// has finished.
func (k *Kernel) resume(p *Proc) {
	if p.done {
		return
	}
	k.resumes++
	k.running = p
	p.c.next()
	k.running = nil
}

// compactProcs drops finished processes from k.procs, keeping spawn order.
func (k *Kernel) compactProcs() {
	live := k.procs[:0]
	for _, p := range k.procs {
		if !p.done {
			live = append(live, p)
		}
	}
	clear(k.procs[len(live):])
	k.procs = live
}

// Run executes events until the queue drains or virtual time would
// exceed `until` (use Forever for no limit). It returns the
// number of events dispatched by this call. A panic raised by a callback or
// by a process propagates out of Run. Run must not be re-entered.
func (k *Kernel) Run(until Time) uint64 {
	if k.inRun {
		panic("sim: Kernel.Run re-entered")
	}
	k.inRun = true
	defer func() { k.inRun, k.running = false, nil }()
	start := k.dispatched
	limit := until
	if until == Forever {
		limit = math.MaxInt64
	}
	for {
		ev := k.pop(limit)
		if ev == nil {
			break
		}
		if ev.dead {
			k.drop(ev)
			continue
		}
		if ev.t > k.now {
			k.now = ev.t
		}
		k.dispatched++
		p, fn, arg := ev.proc, ev.fn, ev.arg
		k.recycle(ev)
		if p != nil {
			k.resume(p)
		} else {
			fn(arg)
		}
	}
	switch {
	case until != Forever && k.now < until:
		k.now = until
	case until == Forever && k.now < k.lastDead:
		k.now = k.lastDead // drained past a cancelled timer
	}
	return k.dispatched - start
}

// Close ends every process that has not finished, and every idle
// coroutine, so no goroutine outlives the simulation. Each process unwinds
// from the point where it is blocked: its deferred calls run, and a
// blocking call made by one of them unwinds at once. Events still queued
// are left in place. Close is idempotent; it must not be called during
// Run, and Go panics after it.
func (k *Kernel) Close() {
	if k.inRun {
		panic("sim: Kernel.Close during Run")
	}
	if k.closed {
		return
	}
	k.closed = true
	for _, p := range k.procs {
		p.close()
	}
	for _, c := range k.idle {
		c.stop()
	}
	k.procs, k.idle = nil, nil
}

// pop removes and returns the next event in (t, seq) order, or returns nil
// if none is queued or the next one is due after limit.
func (k *Kernel) pop(limit Time) *event {
	var i int // the wheel slot of the earliest future event
	if k.ready.len() > 0 {
		// Ready events are due now, and no future event is due earlier:
		// Run moves the clock to until only when every queued event is
		// later. A future event due
		// now was scheduled before every ready event, so it orders first.
		// As the earliest future event it heads its bucket. It is not in
		// far: a dispatch moves the window onto a far event's bucket, and
		// the event into the wheel, before the clock can reach it.
		re := k.ready.peek()
		i = int(re.t>>bucketShift) & wheelMask
		if k.occupied[i>>6]&(1<<(i&63)) == 0 || k.wheel[i].head.t != re.t {
			if re.t > limit {
				return nil
			}
			return k.ready.pop()
		}
	} else if i = k.nextSlot(); i < 0 {
		if len(k.far) == 0 || k.far[0].t > limit {
			return nil
		}
		ev := k.farPop()
		if ev.dead {
			k.farDead-- // Run drops it
		}
		k.base = int64(ev.t >> bucketShift)
		k.migrate()
		return ev
	}
	b := &k.wheel[i]
	ev := b.head
	if ev.t > limit {
		return nil
	}
	if b.head = ev.next; b.head == nil {
		k.occupied[i>>6] &^= 1 << (i & 63)
	}
	k.base = int64(ev.t >> bucketShift)
	if len(k.far) > 0 {
		k.migrate()
	}
	return ev
}

// --- future events --------------------------------------------------------

// The wheel's shape: wheelSize buckets of 1<<bucketShift ns each.
const (
	bucketShift = 8
	wheelSize   = 4096
	wheelMask   = wheelSize - 1
)

// bucket is one wheel slot: a list of the events of one bucket in (t, seq)
// order, with the tail's time kept inline so that an append decides
// without loading the tail.
type bucket struct {
	head, tail *event
	last       Time
}

// insert links ev into its bucket. A new event has the largest seq so far,
// and far hands its events to a bucket in key order before the bucket
// takes any new one, so ev goes last unless an earlier time follows it.
func (k *Kernel) insert(ev *event) {
	i := int(ev.t>>bucketShift) & wheelMask
	b, w, bit := &k.wheel[i], &k.occupied[i>>6], uint64(1)<<(i&63)
	switch {
	case *w&bit == 0: // the bitmap says so without loading the bucket
		*w |= bit
		ev.next = nil
		b.head, b.tail, b.last = ev, ev, ev.t
	case ev.t >= b.last:
		ev.next = nil
		b.tail.next = ev
		b.tail, b.last = ev, ev.t
	default:
		p := &b.head
		for e := *p; e.t < ev.t || (e.t == ev.t && e.seq < ev.seq); e = *p {
			p = &e.next
		}
		ev.next = *p
		*p = ev
	}
}

// nextSlot returns the slot of the earliest non-empty bucket, the first
// occupied slot from base's in circular order, or -1 if the wheel is empty.
func (k *Kernel) nextSlot() int {
	i := int(k.base) & wheelMask
	w := i >> 6
	if x := k.occupied[w] >> (i & 63); x != 0 {
		return i + bits.TrailingZeros64(x)
	}
	// The last step rereads word w for the slots below i.
	for j := 1; j <= len(k.occupied); j++ {
		w := (w + j) & (len(k.occupied) - 1)
		if x := k.occupied[w]; x != 0 {
			return w<<6 + bits.TrailingZeros64(x)
		}
	}
	return -1
}

// migrate moves into the wheel the far events its window reaches, once a
// future event's dispatch has moved the window to that event's bucket,
// and drops the dead ones among them.
func (k *Kernel) migrate() {
	for len(k.far) > 0 && int64(k.far[0].t>>bucketShift)-k.base < wheelSize {
		ev := k.farPop()
		if ev.dead {
			k.farDead--
			k.drop(ev)
			continue
		}
		k.insert(ev)
	}
}

// farDeadFloor is the number of dead far events below which Cancel never
// rebuilds the heap: a small heap is cheap to pop through.
const farDeadFloor = 64

// rebuildFar drops far's dead events and restores the heap order over the
// rest in O(n). Any heap of the same keys pops in the same order.
func (k *Kernel) rebuildFar() {
	h := k.far[:0]
	for _, s := range k.far {
		if s.ev.dead {
			k.drop(s.ev)
		} else {
			h = append(h, s)
		}
	}
	clear(k.far[len(h):])
	for i := (len(h) - 2) / 4; i >= 0 && len(h) > 1; i-- {
		siftDown(h, i, h[i])
	}
	k.far, k.farDead = h, 0
}

// heapSlot is one far heap entry: an event and its (t, seq) key, kept
// inline so that sifting compares without loading the event records.
type heapSlot struct {
	t   Time
	seq uint64
	ev  *event
}

func (k *Kernel) farPush(ev *event) {
	h := append(k.far, heapSlot{})
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.less(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = heapSlot{ev.t, ev.seq, ev}
	k.far = h
}

// less reports whether ev orders before slot s.
func (ev *event) less(s *heapSlot) bool {
	return ev.t < s.t || (ev.t == s.t && ev.seq < s.seq)
}

func (k *Kernel) farPop() *event {
	h := k.far
	ev := h[0].ev
	n := len(h) - 1
	last := h[n]
	h[n] = heapSlot{}
	h = h[:n]
	if n > 0 {
		siftDown(h, 0, last)
	}
	k.far = h
	return ev
}

// siftDown puts x into the heap h at the hole i, moving the hole down past
// every child that orders before x.
func siftDown(h []heapSlot, i int, x heapSlot) {
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		// The least of up to four children, its key kept in registers.
		end := min(c+4, n)
		m, mt, ms := c, h[c].t, h[c].seq
		for j := c + 1; j < end; j++ {
			if s := &h[j]; s.t < mt || (s.t == mt && s.seq < ms) {
				m, mt, ms = j, s.t, s.seq
			}
		}
		if mt > x.t || (mt == x.t && ms > x.seq) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}
