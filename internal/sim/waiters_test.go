package sim

import (
	"fmt"
	"testing"
)

// The schedules below drive contended Mutex, Cond and bounded Queue waits
// twice: with every user a process, held to traces and kernel counters
// recorded when each primitive still parked its own kind of waiter, and
// with some users converted to callback chains on LockCall, WaitCall,
// PushCall and PopCall. A converted run must reproduce the trace and the
// event count exactly, with fewer resumes.

// lockUser is one user of a Mutex: it starts at start, locks, holds the
// lock for hold and unlocks. With cb set, the converted run makes it a
// callback chain on LockCall and UnlockCall.
type lockUser struct {
	cb          bool
	start, hold Time
}

// runMutexSchedule runs users on one Mutex and returns the (time, user)
// trace of lock grants in execution order.
func runMutexSchedule(users []lockUser, convert bool) (trace []string, m *Mutex, k *Kernel) {
	k = NewKernel()
	m = NewMutex(k, "m")
	for i, u := range users {
		i, u := i, u
		note := func() { trace = append(trace, fmt.Sprintf("%v:u%d", k.Now(), i)) }
		if convert && u.cb {
			holder := new(int)
			granted := func(any) {
				note()
				k.AfterCall(u.hold, func(any) { m.UnlockCall(holder) }, nil)
			}
			k.AfterCall(0, func(any) {
				k.AfterCall(u.start, func(any) {
					if m.LockCall(granted, holder) {
						granted(holder)
					}
				}, nil)
			}, nil)
			continue
		}
		k.Go("user", func(p *Proc) {
			p.Sleep(u.start)
			m.Lock(p)
			note()
			p.Sleep(u.hold)
			m.Unlock(p)
		})
	}
	k.Run(Forever)
	return trace, m, k
}

// TestMutexWaitsPinned pins contended Mutex schedules: grant order and
// times, the contention statistics and the kernel's event and resume
// counts, for the all-process run and the converted one.
func TestMutexWaitsPinned(t *testing.T) {
	ms := Millisecond
	cases := []struct {
		name                string
		users               []lockUser
		trace               string
		stats               MutexStats
		dispatched, resumes uint64
		convertedResumes    uint64
	}{
		{"uncontended", []lockUser{{true, 0, ms}, {false, 2 * ms, ms}},
			"[0ns:u0 2.000ms:u1]", MutexStats{Acquires: 2, HoldTime: 2 * ms}, 6, 6, 3},
		{"fifo-handoff", []lockUser{{false, 0, 2 * ms}, {true, 0, ms}, {true, 0, 0}, {false, ms, ms}, {true, 3 * ms, 0}},
			"[0ns:u0 2.000ms:u1 3.000ms:u2 3.000ms:u3 4.000ms:u4]",
			MutexStats{Acquires: 5, Contended: 4, WaitTime: 8 * ms, HoldTime: 4 * ms, MaxWait: 3 * ms}, 19, 19, 7},
		{"zero-hold-chain", []lockUser{{true, ms, 0}, {false, ms, 0}, {true, ms, 0}},
			"[1.000ms:u0 1.000ms:u1 1.000ms:u2]", MutexStats{Acquires: 3, Contended: 2}, 11, 11, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			trace, m, k := runMutexSchedule(tc.users, false)
			if fmt.Sprint(trace) != tc.trace || m.Stats() != tc.stats || k.Dispatched() != tc.dispatched || k.Resumes() != tc.resumes {
				t.Fatalf("procs: grants %v, stats %+v, dispatched %d, resumes %d; want %s, %+v, %d, %d",
					trace, m.Stats(), k.Dispatched(), k.Resumes(), tc.trace, tc.stats, tc.dispatched, tc.resumes)
			}
			trace, m, k = runMutexSchedule(tc.users, true)
			if fmt.Sprint(trace) != tc.trace || m.Stats() != tc.stats || k.Dispatched() != tc.dispatched || k.Resumes() != tc.convertedResumes {
				t.Fatalf("converted: grants %v, stats %+v, dispatched %d, resumes %d; want %s, %+v, %d, %d",
					trace, m.Stats(), k.Dispatched(), k.Resumes(), tc.trace, tc.stats, tc.dispatched, tc.convertedResumes)
			}
		})
	}
}

// condStep is one scheduled event of a Cond schedule: at time at, either a
// waiter takes one token (waiting on the Cond while none is left) and
// holds the lock for hold, or a signaller adds tokens and signals one
// waiter or broadcasts. With cb set, the converted run makes a waiter a
// callback chain on LockCall, WaitCall and UnlockCall.
type condStep struct {
	at        Time
	waiter    bool
	cb        bool
	hold      Time
	tokens    int
	broadcast bool
}

// signal wakes c's longest waiter alone, the way Broadcast wakes each, so
// that the schedules below can pin one woken waiter re-locking.
func signal(c *Cond) {
	if c.waiters.len() > 0 {
		c.m.k.AfterCall(0, condWoken, c.waiters.pop())
	}
}

// runCondSchedule runs steps on one Mutex and Cond and returns the trace
// of token takes and signals in execution order.
func runCondSchedule(steps []condStep, convert bool) (trace []string, k *Kernel) {
	k = NewKernel()
	m := NewMutex(k, "m")
	c := NewCond(m)
	tokens := 0
	for i, s := range steps {
		i, s := i, s
		if convert && s.cb {
			holder := new(int)
			var locked func(any)
			locked = func(any) {
				if tokens == 0 {
					c.WaitCall(locked, holder)
					return
				}
				tokens--
				trace = append(trace, fmt.Sprintf("%v:take%d", k.Now(), i))
				k.AfterCall(s.hold, func(any) { m.UnlockCall(holder) }, nil)
			}
			k.AfterCall(0, func(any) {
				k.AfterCall(s.at, func(any) {
					if m.LockCall(locked, holder) {
						locked(holder)
					}
				}, nil)
			}, nil)
			continue
		}
		k.Go("step", func(p *Proc) {
			p.Sleep(s.at)
			m.Lock(p)
			if s.waiter {
				for tokens == 0 {
					c.WaitCall(Wake, p)
					p.Await()
				}
				tokens--
				trace = append(trace, fmt.Sprintf("%v:take%d", k.Now(), i))
				p.Sleep(s.hold)
			} else {
				tokens += s.tokens
				trace = append(trace, fmt.Sprintf("%v:give%d", k.Now(), i))
				if s.broadcast {
					c.Broadcast()
				} else {
					signal(c)
				}
			}
			m.Unlock(p)
		})
	}
	k.Run(Forever)
	return trace, k
}

// TestCondWaitsPinned pins Cond schedules where woken waiters contend for
// the lock again, find the predicate false and wait anew, or lose their
// token to a waiter that arrived later. resumes is the all-process count
// recorded when a woken Wait resumed to lock again; a woken waiter now
// re-locks in its wake-up slot with LockCall, so each of the relocks that
// found the mutex held costs one resume fewer.
func TestCondWaitsPinned(t *testing.T) {
	ms := Millisecond
	cases := []struct {
		name                string
		steps               []condStep
		trace               string
		dispatched, resumes uint64
		relocks             uint64
		convertedResumes    uint64
	}{
		{"signal-one-at-a-time", []condStep{
			{at: 0, waiter: true, cb: true, hold: ms},
			{at: 0, waiter: true, hold: ms},
			{at: ms, tokens: 1},
			{at: 2 * ms, tokens: 1},
		}, "[1.000ms:give2 1.000ms:take0 2.000ms:give3 2.000ms:take1]", 13, 13, 0, 9},
		{"broadcast-one-token", []condStep{
			{at: 0, waiter: true, hold: ms},
			{at: 0, waiter: true, cb: true, hold: 0},
			{at: 0, waiter: true, hold: 0},
			{at: ms, tokens: 1, broadcast: true},
			{at: 3 * ms, tokens: 2, broadcast: true},
		}, "[1.000ms:give3 1.000ms:take0 3.000ms:give4 3.000ms:take1 3.000ms:take2]", 21, 21, 3, 13},
		{"late-arrival-steals", []condStep{
			{at: 0, waiter: true, cb: true, hold: 0},
			{at: ms, tokens: 1},
			{at: ms, waiter: true, hold: 2 * ms},
			{at: 4 * ms, tokens: 1},
		}, "[1.000ms:give1 1.000ms:take2 4.000ms:give3 4.000ms:take0]", 13, 13, 1, 7},
		{"relock-contended", []condStep{
			{at: 0, waiter: true, hold: ms},
			{at: 0, waiter: true, cb: true, hold: ms},
			{at: ms, tokens: 2, broadcast: true},
			{at: ms, waiter: true, cb: true, hold: 0},
			{at: 5 * ms, tokens: 1},
		}, "[1.000ms:give2 1.000ms:take3 1.000ms:take0 5.000ms:give4 5.000ms:take1]", 18, 18, 2, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			trace, k := runCondSchedule(tc.steps, false)
			if fmt.Sprint(trace) != tc.trace || k.Dispatched() != tc.dispatched || k.Resumes() != tc.resumes-tc.relocks {
				t.Fatalf("procs: trace %v, dispatched %d, resumes %d; want %s, %d, %d - %d",
					trace, k.Dispatched(), k.Resumes(), tc.trace, tc.dispatched, tc.resumes, tc.relocks)
			}
			trace, k = runCondSchedule(tc.steps, true)
			if fmt.Sprint(trace) != tc.trace || k.Dispatched() != tc.dispatched || k.Resumes() != tc.convertedResumes {
				t.Fatalf("converted: trace %v, dispatched %d, resumes %d; want %s, %d, %d",
					trace, k.Dispatched(), k.Resumes(), tc.trace, tc.dispatched, tc.convertedResumes)
			}
		})
	}
}

// queueUser is one user of a bounded Queue: a producer pushes n values
// (100*user + i), a consumer pops n, starting at start and pausing gap
// after each. With cb set, the converted run makes it a callback chain on
// PushCall or PopCall.
type queueUser struct {
	cb         bool
	push       bool
	start, gap Time
	n          int
}

// runQueueSchedule runs users on one Queue of capacity capacity and
// returns the trace of completed pushes and pops in execution order.
func runQueueSchedule(capacity int, users []queueUser, convert bool) (trace []string, k *Kernel) {
	k = NewKernel()
	q := NewQueue[int](k, "q", capacity)
	for i, u := range users {
		i, u := i, u
		pushed := func(v int) { trace = append(trace, fmt.Sprintf("%v:u%d+%d", k.Now(), i, v)) }
		popped := func(v int) { trace = append(trace, fmt.Sprintf("%v:u%d-%d", k.Now(), i, v)) }
		if convert && u.cb {
			j := 0
			var step func(any)
			step = func(any) {
				if j == u.n {
					return
				}
				if u.push {
					if !q.PushCall(100*i+j, step, nil) {
						return
					}
					pushed(100*i + j)
				} else {
					v, ok := q.PopCall(step, nil)
					if !ok {
						return
					}
					popped(v)
				}
				j++
				k.AfterCall(u.gap, step, nil)
			}
			k.AfterCall(0, func(any) { k.AfterCall(u.start, step, nil) }, nil)
			continue
		}
		k.Go("user", func(p *Proc) {
			p.Sleep(u.start)
			for j := 0; j < u.n; j++ {
				if u.push {
					q.Push(p, 100*i+j)
					pushed(100*i + j)
				} else {
					v, _ := q.Pop(p)
					popped(v)
				}
				p.Sleep(u.gap)
			}
		})
	}
	k.Run(Forever)
	return trace, k
}

// TestQueueWaitsPinned pins bounded-queue schedules with blocked putters
// and getters, including a running consumer that takes an item ahead of
// a woken getter, which then waits again.
func TestQueueWaitsPinned(t *testing.T) {
	ms := Millisecond
	cases := []struct {
		name                string
		capacity            int
		users               []queueUser
		trace               string
		dispatched, resumes uint64
		convertedResumes    uint64
	}{
		{"putters-block", 1, []queueUser{
			{cb: true, push: true, start: 0, gap: 0, n: 3},
			{push: true, start: 0, gap: 0, n: 1},
			{push: false, start: ms, gap: ms, n: 4},
		}, "[0ns:u0+0 1.000ms:u2-0 1.000ms:u1+100 2.000ms:u2-100 2.000ms:u0+1 3.000ms:u2-1 3.000ms:u0+2 4.000ms:u2-2]", 17, 17, 10},
		{"getters-block", 2, []queueUser{
			{cb: true, push: false, start: 0, gap: 0, n: 2},
			{push: false, start: 0, gap: 0, n: 1},
			{cb: true, push: true, start: ms, gap: ms, n: 3},
		}, "[1.000ms:u2+200 1.000ms:u0-200 2.000ms:u2+201 2.000ms:u1-201 3.000ms:u2+202 3.000ms:u0-202]", 15, 15, 4},
		{"running-getter-steals", 1, []queueUser{
			{cb: true, push: false, start: 0, gap: 0, n: 2},
			{push: true, start: ms, gap: 0, n: 2},
			{cb: true, push: false, start: ms, gap: 0, n: 1},
		}, "[1.000ms:u1+100 1.000ms:u2-100 1.000ms:u1+101 1.000ms:u0-101]", 12, 12, 4},
		{"mixed", 2, []queueUser{
			{push: true, start: 0, gap: 0, n: 5},
			{cb: true, push: false, start: ms, gap: 0, n: 2},
			{push: false, start: ms, gap: 2 * ms, n: 3},
			{cb: true, push: true, start: 2 * ms, gap: 0, n: 1},
		}, "[0ns:u0+0 0ns:u0+1 1.000ms:u1-0 1.000ms:u2-1 1.000ms:u0+2 1.000ms:u1-2 1.000ms:u0+3 1.000ms:u0+4 3.000ms:u2-3 3.000ms:u3+300 5.000ms:u2-4]", 21, 21, 13},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			trace, k := runQueueSchedule(tc.capacity, tc.users, false)
			if fmt.Sprint(trace) != tc.trace || k.Dispatched() != tc.dispatched || k.Resumes() != tc.resumes {
				t.Fatalf("procs: trace %v, dispatched %d, resumes %d; want %s, %d, %d",
					trace, k.Dispatched(), k.Resumes(), tc.trace, tc.dispatched, tc.resumes)
			}
			trace, k = runQueueSchedule(tc.capacity, tc.users, true)
			if fmt.Sprint(trace) != tc.trace || k.Dispatched() != tc.dispatched || k.Resumes() != tc.convertedResumes {
				t.Fatalf("converted: trace %v, dispatched %d, resumes %d; want %s, %d, %d",
					trace, k.Dispatched(), k.Resumes(), tc.trace, tc.dispatched, tc.convertedResumes)
			}
		})
	}
}
