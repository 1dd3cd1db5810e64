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
// Ownership transfers directly to the longest-waiting process on Unlock,
// so the lock cannot be barged.
type Mutex struct {
	k        *Kernel
	name     string
	locked   bool
	holder   *Proc
	waiters  fifo[*Proc]
	lockedAt Time
	stats    MutexStats
	// unlockHook runs whenever the mutex transitions to free (no waiter to
	// hand off to). It must not block; schedulers use it to learn that
	// deferred work for this lock can now make progress.
	unlockHook func()
}

// SetUnlockHook installs a callback invoked each time the mutex becomes
// free. The callback runs in the unlocking process's context and must not
// block on simulation primitives.
func (m *Mutex) SetUnlockHook(f func()) { m.unlockHook = f }

// NewMutex creates a named mutex on kernel k.
func NewMutex(k *Kernel, name string) *Mutex { return &Mutex{k: k, name: name} }

// MakeMutex returns a mutex by value for callers that embed or
// block-allocate their locks.
func MakeMutex(k *Kernel, name string) Mutex { return Mutex{k: k, name: name} }

// Name returns the mutex name.
func (m *Mutex) Name() string { return m.name }

// Stats returns a copy of the accumulated contention statistics.
func (m *Mutex) Stats() MutexStats { return m.stats }

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.locked }

// QueueLen returns the number of processes waiting for the lock.
func (m *Mutex) QueueLen() int { return m.waiters.len() }

// Lock acquires the mutex, blocking p until it is available.
func (m *Mutex) Lock(p *Proc) {
	m.stats.Acquires++
	if !m.locked {
		m.locked = true
		m.holder = p
		m.lockedAt = p.k.now
		return
	}
	m.stats.Contended++
	t0 := p.k.now
	m.waiters.push(p)
	p.park() // Unlock transfers ownership before waking us
	w := p.k.now - t0
	m.stats.WaitTime += w
	if w > m.stats.MaxWait {
		m.stats.MaxWait = w
	}
}

// TryLock acquires the mutex if it is free and reports whether it did.
func (m *Mutex) TryLock(p *Proc) bool {
	if m.locked {
		return false
	}
	m.stats.Acquires++
	m.locked = true
	m.holder = p
	m.lockedAt = p.k.now
	return true
}

// Unlock releases the mutex. If processes are waiting, ownership passes to
// the head of the queue.
func (m *Mutex) Unlock(p *Proc) {
	if !m.locked {
		panic("sim: Unlock of unlocked Mutex " + m.name)
	}
	if m.holder != p {
		panic("sim: Unlock of Mutex " + m.name + " by non-holder")
	}
	m.stats.HoldTime += m.k.now - m.lockedAt
	if m.waiters.len() > 0 {
		next := m.waiters.pop()
		m.holder = next
		m.lockedAt = m.k.now
		next.resumeAt(m.k.now)
		return
	}
	m.locked = false
	m.holder = nil
	if m.unlockHook != nil {
		m.unlockHook()
	}
}

// Cond is a condition variable associated with a Mutex.
type Cond struct {
	m       *Mutex
	waiters fifo[*Proc]
}

// NewCond creates a condition variable using m.
func NewCond(m *Mutex) *Cond { return &Cond{m: m} }

// Wait atomically releases the mutex, suspends p until Signal/Broadcast,
// then re-acquires the mutex before returning. As with sync.Cond, callers
// must re-check their predicate in a loop.
func (c *Cond) Wait(p *Proc) {
	c.waiters.push(p)
	c.m.Unlock(p)
	p.park()
	c.m.Lock(p)
}

// Signal wakes the longest-waiting process, if any.
func (c *Cond) Signal() {
	if c.waiters.len() == 0 {
		return
	}
	c.waiters.pop().resumeAt(c.m.k.now)
}

// Broadcast wakes all waiting processes.
func (c *Cond) Broadcast() {
	for c.waiters.len() > 0 {
		c.waiters.pop().resumeAt(c.m.k.now)
	}
}

// semWaiter is a queued Acquire request: a parked process, or a callback
// (fn, arg) queued by acquireCall at time since.
type semWaiter struct {
	p     *Proc
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
	acquires  uint64
	throttled uint64
	waitTime  Time
}

// NewSemaphore creates a semaphore with the given capacity (initially all
// available). Capacity <= 0 means unlimited: Acquire never blocks.
func NewSemaphore(k *Kernel, name string, capacity int64) *Semaphore {
	return &Semaphore{k: k, name: name, capacity: capacity, avail: capacity}
}

// Name returns the semaphore name.
func (s *Semaphore) Name() string { return s.name }

// Available returns the currently free units (meaningless when unlimited).
func (s *Semaphore) Available() int64 { return s.avail }

// Capacity returns the configured capacity (<=0 means unlimited).
func (s *Semaphore) Capacity() int64 { return s.capacity }

// QueueLen returns the number of blocked Acquire calls.
func (s *Semaphore) QueueLen() int { return s.waiters.len() }

// Throttled returns how many Acquire calls had to wait.
func (s *Semaphore) Throttled() uint64 { return s.throttled }

// WaitTime returns the total virtual time spent blocked in Acquire.
func (s *Semaphore) WaitTime() Time { return s.waitTime }

// Acquire obtains n units, blocking p until they are available. Grants are
// strictly FIFO: a large request at the head blocks smaller ones behind it,
// which matches the behaviour of Ceph's Throttle.
func (s *Semaphore) Acquire(p *Proc, n int64) {
	s.acquires++
	if s.capacity <= 0 {
		return
	}
	if s.waiters.len() == 0 && s.avail >= n {
		s.avail -= n
		return
	}
	s.throttled++
	t0 := p.k.now
	s.waiters.push(semWaiter{p: p, n: n})
	p.park() // Release grants our units before waking us
	s.waitTime += p.k.now - t0
}

// acquireCall is Acquire for callback models. It obtains n units and
// reports true if they are free now; otherwise it queues fn(arg) behind the
// waiting processes in the same FIFO and reports false. A queued callback is
// granted with AfterCall(0, fn, arg) at the point where a process waiter
// would be resumed, so it runs in the event slot that process's resume would
// have used.
func (s *Semaphore) acquireCall(n int64, fn func(any), arg any) bool {
	s.acquires++
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

// grant wakes a waiter whose units have been granted.
func (s *Semaphore) grant(w semWaiter) {
	if w.p != nil {
		w.p.resumeAt(s.k.now)
		return
	}
	s.waitTime += s.k.now - w.since
	s.k.AfterCall(0, w.fn, w.arg)
}

// TryAcquire obtains n units without blocking and reports success.
func (s *Semaphore) TryAcquire(n int64) bool {
	if s.capacity <= 0 {
		return true
	}
	if s.waiters.len() == 0 && s.avail >= n {
		s.avail -= n
		s.acquires++
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
		s.grant(w)
	}
}

// Resize changes the capacity, releasing waiters if it grew.
func (s *Semaphore) Resize(capacity int64) {
	delta := capacity - s.capacity
	s.capacity = capacity
	if capacity <= 0 {
		// Became unlimited: release everyone.
		for s.waiters.len() > 0 {
			s.grant(s.waiters.pop())
		}
		return
	}
	if delta > 0 {
		s.Release(delta)
	} else {
		s.avail += delta // may go negative; drains as units return
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

// Fired reports whether Fire has been called.
func (e *Event) Fired() bool { return e.fired }

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

// Count returns the current counter value.
func (w *WaitGroup) Count() int64 { return w.n }

// Wait blocks p until the count is zero.
func (w *WaitGroup) Wait(p *Proc) {
	if w.n == 0 {
		return
	}
	w.waiters.push(p)
	p.park()
}
