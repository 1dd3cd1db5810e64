package sim

// This file provides simulated synchronization primitives. Because the
// kernel guarantees that only one process runs at a time, the primitives
// need no real atomicity; their job is to model *contention* — queueing,
// FIFO handoff and the virtual time processes spend waiting — and to record
// statistics about it.

// MutexStats summarizes contention observed on a Mutex.
type MutexStats struct {
	Acquires  uint64 // successful Lock calls
	Contended uint64 // Lock calls that had to wait
	WaitTime  Time   // total time spent waiting for the lock
	HoldTime  Time   // total time the lock was held
	MaxWait   Time   // longest single wait
}

// Mutex is a simulated mutual-exclusion lock with FIFO handoff.
// Ownership transfers directly to the longest waiter on Unlock, so the
// lock cannot be barged. A process locks with Lock; a callback chain locks
// with LockCall and unlocks with UnlockCall. Both kinds of waiter share one
// FIFO, and a LockCall grant lands in the (t, seq) slot where a waiting
// Lock would resume.
type Mutex struct {
	k        *Kernel
	name     string
	locked   bool
	holder   any // the holding *Proc, or the arg of the holding LockCall
	waiters  fifo[waiter]
	lockedAt Time
	stats    MutexStats
	// unlockHook runs whenever the mutex transitions to free (no waiter to
	// hand off to). It must not block; schedulers use it to learn that
	// deferred work for this lock can now make progress.
	unlockHook func()
}

// waiter is a queued request of a Mutex, Cond or Queue: fn(arg) runs when
// it is granted or woken. since is when it was queued.
type waiter struct {
	fn    func(any)
	arg   any
	since Time
}

// SetUnlockHook installs a callback invoked each time the mutex becomes
// free. The callback runs in the unlocking context and must not block on
// simulation primitives.
func (m *Mutex) SetUnlockHook(f func()) { m.unlockHook = f }

// NewMutex creates a named mutex on kernel k.
func NewMutex(k *Kernel, name string) *Mutex { return &Mutex{k: k, name: name} }

// MakeMutex returns a mutex by value for callers that embed or
// block-allocate their locks.
func MakeMutex(k *Kernel, name string) Mutex { return Mutex{k: k, name: name} }

// Stats returns a copy of the accumulated contention statistics.
func (m *Mutex) Stats() MutexStats { return m.stats }

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.locked }

// Lock acquires the mutex, blocking p until it is available: it is
// LockCall with Wake, then Await.
func (m *Mutex) Lock(p *Proc) {
	if !m.LockCall(Wake, p) {
		p.Await()
	}
}

// LockCall acquires the mutex on behalf of holder arg and reports true if
// it was free. Otherwise it queues fn(arg) and reports false: the Unlock
// that hands the lock over grants it with AfterCall(0, fn, arg). The
// holder releases the lock with UnlockCall(arg).
func (m *Mutex) LockCall(fn func(any), arg any) bool {
	m.stats.Acquires++
	if !m.locked {
		m.locked = true
		m.holder = arg
		m.lockedAt = m.k.now
		return true
	}
	m.stats.Contended++
	m.waiters.push(waiter{fn: fn, arg: arg, since: m.k.now})
	return false
}

// TryLock acquires the mutex on behalf of holder (a *Proc, or the holder
// a callback chain passes to UnlockCall) if it is free, and reports
// whether it did.
func (m *Mutex) TryLock(holder any) bool {
	if m.locked {
		return false
	}
	m.stats.Acquires++
	m.locked = true
	m.holder = holder
	m.lockedAt = m.k.now
	return true
}

// Unlock releases the mutex p holds (UnlockCall with p).
func (m *Mutex) Unlock(p *Proc) { m.UnlockCall(p) }

// UnlockCall releases the mutex held by holder. If there are waiters,
// ownership passes to the head of the queue.
func (m *Mutex) UnlockCall(holder any) {
	if !m.locked {
		panic("sim: Unlock of unlocked Mutex " + m.name)
	}
	if m.holder != holder {
		panic("sim: Unlock of Mutex " + m.name + " by non-holder")
	}
	now := m.k.now
	m.stats.HoldTime += now - m.lockedAt
	if m.waiters.len() > 0 {
		w := m.waiters.pop()
		m.holder = w.arg
		m.lockedAt = now
		wait := now - w.since
		m.stats.WaitTime += wait
		if wait > m.stats.MaxWait {
			m.stats.MaxWait = wait
		}
		m.k.AfterCall(0, w.fn, w.arg)
		return
	}
	m.locked = false
	m.holder = nil
	if m.unlockHook != nil {
		m.unlockHook()
	}
}

// Cond is a condition variable associated with a Mutex. Waiters are
// callback chains (WaitCall); a process waits with WaitCall(Wake, p) and
// then Await.
type Cond struct {
	m       *Mutex
	waiters fifo[*condWaiter]
}

// condWaiter is a WaitCall waiting on c.
type condWaiter struct {
	c *Cond
	waiter
}

// NewCond creates a condition variable using m.
func NewCond(m *Mutex) *Cond { return &Cond{m: m} }

// WaitCall releases the mutex held by arg and queues fn(arg) until
// Broadcast. A woken waiter re-acquires the mutex with LockCall in its
// wake-up slot, and fn(arg) runs once it holds the mutex again. As with
// sync.Cond, callers must re-check their predicate.
func (c *Cond) WaitCall(fn func(any), arg any) {
	c.waiters.push(&condWaiter{c: c, waiter: waiter{fn: fn, arg: arg}})
	c.m.UnlockCall(arg)
}

// condWoken re-acquires a woken waiter's mutex and continues it once held.
func condWoken(a any) {
	w := a.(*condWaiter)
	if w.c.m.LockCall(w.fn, w.arg) {
		w.fn(w.arg)
	}
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast() {
	for c.waiters.len() > 0 {
		c.m.k.AfterCall(0, condWoken, c.waiters.pop())
	}
}

// semWaiter is a request queued by AcquireCall at time since: fn(arg)
// runs once its n units are granted.
type semWaiter struct {
	n     int64
	fn    func(any)
	arg   any
	since Time
}

// Semaphore is a counting semaphore with FIFO granting; it models throttles
// and finite resources (queue-depth caps, in-flight op limits).
type Semaphore struct {
	k        *Kernel
	name     string
	capacity int64
	avail    int64
	waiters  fifo[semWaiter]
	// stats
	throttled uint64
	waitTime  Time
}

// NewSemaphore creates a semaphore with the given capacity (initially all
// available). Capacity <= 0 means unlimited: Acquire never blocks.
func NewSemaphore(k *Kernel, name string, capacity int64) *Semaphore {
	return &Semaphore{k: k, name: name, capacity: capacity, avail: capacity}
}

// Available returns the currently free units (meaningless when unlimited).
func (s *Semaphore) Available() int64 { return s.avail }

// Capacity returns the configured capacity (<=0 means unlimited).
func (s *Semaphore) Capacity() int64 { return s.capacity }

// QueueLen returns the number of queued requests.
func (s *Semaphore) QueueLen() int { return s.waiters.len() }

// Throttled returns how many requests had to wait.
func (s *Semaphore) Throttled() uint64 { return s.throttled }

// WaitTime returns the total virtual time requests spent queued.
func (s *Semaphore) WaitTime() Time { return s.waitTime }

// Acquire obtains n units, blocking p until they are available: it is
// AcquireCall with Wake, then Await.
func (s *Semaphore) Acquire(p *Proc, n int64) {
	if !s.AcquireCall(n, Wake, p) {
		p.Await()
	}
}

// AcquireCall obtains n units and reports true if they are free now;
// otherwise it queues fn(arg) and reports false. Grants are strictly FIFO:
// a large request at the head blocks smaller ones behind it, which matches
// the behaviour of Ceph's Throttle. A queued request is granted with
// AfterCall(0, fn, arg) from the Release that frees its units.
func (s *Semaphore) AcquireCall(n int64, fn func(any), arg any) bool {
	if s.capacity <= 0 {
		return true
	}
	if s.waiters.len() == 0 && s.avail >= n {
		s.avail -= n
		return true
	}
	s.throttled++
	s.waiters.push(semWaiter{n: n, fn: fn, arg: arg, since: s.k.now})
	return false
}

// TryAcquire obtains n units without blocking and reports success.
func (s *Semaphore) TryAcquire(n int64) bool {
	if s.capacity <= 0 {
		return true
	}
	if s.waiters.len() == 0 && s.avail >= n {
		s.avail -= n
		return true
	}
	return false
}

// Release returns n units and grants as many queued requests as now fit.
func (s *Semaphore) Release(n int64) {
	if s.capacity <= 0 {
		return
	}
	s.avail += n
	if s.avail > s.capacity {
		s.avail = s.capacity
	}
	for s.waiters.len() > 0 && s.avail >= s.waiters.peek().n {
		w := s.waiters.pop()
		s.avail -= w.n
		s.waitTime += s.k.now - w.since
		s.k.AfterCall(0, w.fn, w.arg)
	}
}

// Event is a one-shot broadcast: processes wait until it fires. It is the
// simulation analogue of a closed channel / completion future.
type Event struct {
	k       *Kernel
	fired   bool
	waiters fifo[*Proc]
}

// NewEvent creates an unfired event.
func NewEvent(k *Kernel) *Event { return &Event{k: k} }

// Fire wakes all current and future waiters. Firing twice is a no-op.
func (e *Event) Fire() {
	if e.fired {
		return
	}
	e.fired = true
	for e.waiters.len() > 0 {
		e.waiters.pop().resumeAt(e.k.now)
	}
}

// Reset re-arms a fired event so the record can be pooled and reused.
// It must only be called once every waiter has observed the fire (no
// process may still be blocked in Wait).
func (e *Event) Reset() {
	if e.waiters.len() > 0 {
		panic("sim: Event.Reset with blocked waiters")
	}
	e.fired = false
}

// Wait blocks p until the event fires (returns immediately if it already has).
func (e *Event) Wait(p *Proc) {
	if e.fired {
		return
	}
	e.waiters.push(p)
	p.park()
}

// WaitGroup counts outstanding work, like sync.WaitGroup.
type WaitGroup struct {
	k       *Kernel
	n       int64
	waiters fifo[*Proc]
}

// NewWaitGroup creates a WaitGroup with zero count.
func NewWaitGroup(k *Kernel) *WaitGroup { return &WaitGroup{k: k} }

// Add adds delta to the count. If the count reaches zero, waiters wake.
func (w *WaitGroup) Add(delta int64) {
	w.n += delta
	if w.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if w.n == 0 {
		for w.waiters.len() > 0 {
			w.waiters.pop().resumeAt(w.k.now)
		}
	}
}

// Done decrements the count by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks p until the count is zero.
func (w *WaitGroup) Wait(p *Proc) {
	if w.n == 0 {
		return
	}
	w.waiters.push(p)
	p.park()
}
