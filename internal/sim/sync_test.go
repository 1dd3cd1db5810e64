package sim

import (
	"fmt"
	"testing"
)

func TestMutexExclusion(t *testing.T) {
	k := NewKernel()
	m := NewMutex(k, "m")
	inside := 0
	maxInside := 0
	for i := 0; i < 8; i++ {
		k.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			for j := 0; j < 10; j++ {
				m.Lock(p)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				p.Sleep(Time(100))
				inside--
				m.Unlock(p)
			}
		})
	}
	k.Run(Forever)
	if maxInside != 1 {
		t.Fatalf("max concurrent holders = %d, want 1", maxInside)
	}
	st := m.Stats()
	if st.Acquires != 80 {
		t.Fatalf("acquires = %d, want 80", st.Acquires)
	}
	if st.Contended == 0 {
		t.Fatal("expected contention")
	}
	if st.HoldTime != 80*100 {
		t.Fatalf("hold time = %v, want 8000ns", st.HoldTime)
	}
}

func TestMutexFIFOHandoff(t *testing.T) {
	k := NewKernel()
	m := NewMutex(k, "m")
	var order []int
	k.Go("holder", func(p *Proc) {
		m.Lock(p)
		p.Sleep(10 * Microsecond)
		m.Unlock(p)
	})
	for i := 0; i < 5; i++ {
		i := i
		k.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(Time(i + 1)) // arrive in order 0..4
			m.Lock(p)
			order = append(order, i)
			m.Unlock(p)
		})
	}
	k.Run(Forever)
	for i, v := range order {
		if v != i {
			t.Fatalf("handoff order = %v, want FIFO", order)
		}
	}
}

func TestMutexTryLock(t *testing.T) {
	k := NewKernel()
	m := NewMutex(k, "m")
	var got []bool
	k.Go("a", func(p *Proc) {
		if !m.TryLock(p) {
			t.Error("first TryLock failed")
		}
		p.Sleep(Millisecond)
		m.Unlock(p)
	})
	k.Go("b", func(p *Proc) {
		p.Sleep(Microsecond)
		got = append(got, m.TryLock(p)) // held by a -> false
		p.Sleep(2 * Millisecond)
		got = append(got, m.TryLock(p)) // free -> true
		m.Unlock(p)
	})
	k.Run(Forever)
	if len(got) != 2 || got[0] || !got[1] {
		t.Fatalf("TryLock results = %v, want [false true]", got)
	}
}

func TestMutexUnlockErrors(t *testing.T) {
	k := NewKernel()
	m := NewMutex(k, "m")
	k.Go("a", func(p *Proc) {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("unlock of unlocked mutex did not panic")
				}
			}()
			m.Unlock(p)
		}()
	})
	k.Run(Forever)
}

func TestMutexWaitStats(t *testing.T) {
	k := NewKernel()
	m := NewMutex(k, "m")
	k.Go("a", func(p *Proc) {
		m.Lock(p)
		p.Sleep(Millisecond)
		m.Unlock(p)
	})
	k.Go("b", func(p *Proc) {
		p.Sleep(Microsecond)
		m.Lock(p) // waits ~999us
		m.Unlock(p)
	})
	k.Run(Forever)
	st := m.Stats()
	if st.MaxWait != Millisecond-Microsecond {
		t.Fatalf("MaxWait = %v, want 999us", st.MaxWait)
	}
	if st.WaitTime != st.MaxWait {
		t.Fatalf("WaitTime = %v", st.WaitTime)
	}
}

func TestCondBroadcastWakesAll(t *testing.T) {
	k := NewKernel()
	m := NewMutex(k, "m")
	c := NewCond(m)
	released := false
	woke := 0
	for i := 0; i < 4; i++ {
		k.Go(fmt.Sprintf("waiter%d", i), func(p *Proc) {
			m.Lock(p)
			for !released {
				c.WaitCall(Wake, p)
				p.Await()
			}
			woke++
			m.Unlock(p)
		})
	}
	k.Go("signaler", func(p *Proc) {
		p.Sleep(Millisecond)
		m.Lock(p)
		released = true
		c.Broadcast()
		m.Unlock(p)
	})
	k.Run(Forever)
	if woke != 4 {
		t.Fatalf("woke = %d, want 4", woke)
	}
	if k.Live() != 0 {
		t.Fatalf("%d processes still blocked", k.Live())
	}
}

func TestSemaphoreBasic(t *testing.T) {
	k := NewKernel()
	s := NewSemaphore(k, "s", 2)
	inside := 0
	maxInside := 0
	for i := 0; i < 6; i++ {
		k.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			s.Acquire(p, 1)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Sleep(Millisecond)
			inside--
			s.Release(1)
		})
	}
	k.Run(Forever)
	if maxInside != 2 {
		t.Fatalf("max concurrency = %d, want 2", maxInside)
	}
	if s.Throttled() != 4 {
		t.Fatalf("throttled = %d, want 4", s.Throttled())
	}
}

func TestSemaphoreUnlimited(t *testing.T) {
	k := NewKernel()
	s := NewSemaphore(k, "s", 0)
	done := 0
	for i := 0; i < 100; i++ {
		k.Go("w", func(p *Proc) {
			s.Acquire(p, 5)
			done++
			s.Release(5)
		})
	}
	k.Run(Forever)
	if done != 100 {
		t.Fatalf("done = %d", done)
	}
	if s.Throttled() != 0 {
		t.Fatal("unlimited semaphore throttled")
	}
}

func TestSemaphoreFIFOHeadOfLineBlocking(t *testing.T) {
	// A large request at the head must block later small ones (Ceph Throttle
	// semantics).
	k := NewKernel()
	s := NewSemaphore(k, "s", 10)
	var order []string
	k.Go("big", func(p *Proc) {
		s.Acquire(p, 8)
		p.Sleep(Millisecond)
		s.Release(8)
	})
	k.Go("huge", func(p *Proc) {
		p.Sleep(Microsecond)
		s.Acquire(p, 10) // must wait for big to release
		order = append(order, "huge")
		s.Release(10)
	})
	k.Go("small", func(p *Proc) {
		p.Sleep(2 * Microsecond)
		s.Acquire(p, 1) // 2 units free, but FIFO: blocked behind huge
		order = append(order, "small")
		s.Release(1)
	})
	k.Run(Forever)
	if fmt.Sprint(order) != "[huge small]" {
		t.Fatalf("order = %v, want [huge small]", order)
	}
}

func TestSemaphoreTryAcquire(t *testing.T) {
	k := NewKernel()
	s := NewSemaphore(k, "s", 3)
	if !s.TryAcquire(2) {
		t.Fatal("TryAcquire(2) failed on fresh semaphore")
	}
	if s.TryAcquire(2) {
		t.Fatal("TryAcquire(2) succeeded with 1 available")
	}
	s.Release(2)
	if !s.TryAcquire(3) {
		t.Fatal("TryAcquire(3) failed after release")
	}
}

func TestEventBroadcast(t *testing.T) {
	k := NewKernel()
	e := NewEvent(k)
	woke := 0
	for i := 0; i < 5; i++ {
		k.Go("w", func(p *Proc) {
			e.Wait(p)
			woke++
		})
	}
	k.Go("late", func(p *Proc) {
		p.Sleep(2 * Millisecond)
		e.Wait(p) // already fired: returns immediately
		woke++
	})
	k.Go("firer", func(p *Proc) {
		p.Sleep(Millisecond)
		e.Fire()
		e.Fire() // idempotent
	})
	k.Run(Forever)
	if woke != 6 {
		t.Fatalf("woke = %d, want 6", woke)
	}
	if !e.fired {
		t.Fatal("fired = false")
	}
}

func TestWaitGroup(t *testing.T) {
	k := NewKernel()
	wg := NewWaitGroup(k)
	wg.Add(3)
	var doneAt Time
	k.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	for i := 1; i <= 3; i++ {
		i := i
		k.Go("worker", func(p *Proc) {
			p.Sleep(Time(i) * Millisecond)
			wg.Done()
		})
	}
	k.Run(Forever)
	if doneAt != 3*Millisecond {
		t.Fatalf("waiter released at %v, want 3ms", doneAt)
	}
	if wg.n != 0 {
		t.Fatalf("count = %d", wg.n)
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	k := NewKernel()
	wg := NewWaitGroup(k)
	defer func() {
		if recover() == nil {
			t.Fatal("negative counter did not panic")
		}
	}()
	wg.Done()
}

func TestWaitGroupZeroWaitReturnsImmediately(t *testing.T) {
	k := NewKernel()
	wg := NewWaitGroup(k)
	ran := false
	k.Go("w", func(p *Proc) {
		wg.Wait(p)
		ran = true
	})
	k.Run(Forever)
	if !ran {
		t.Fatal("Wait on zero WaitGroup blocked")
	}
}

// semUser is one user of a Semaphore in TestAcquireCallMatchesAcquire: it
// starts at start, acquires n units, holds them for hold and releases them.
// As a proc it calls Acquire; with cb set, the converted run makes it a
// callback chain on AcquireCall.
type semUser struct {
	cb    bool
	start Time
	n     int64
	hold  Time
}

// runSemSchedule runs users on one Semaphore and returns the (time, user)
// trace of grants in execution order. With convert false every user is a
// proc, and saved is the number of resumes the converted run should not
// make: for a cb user its start, its initial Sleep, the grant if it queued,
// and the end of its hold.
func runSemSchedule(capacity int64, users []semUser, convert bool) (trace []string, s *Semaphore, k *Kernel, saved uint64) {
	k = NewKernel()
	s = NewSemaphore(k, "s", capacity)
	note := func(i int) { trace = append(trace, fmt.Sprintf("%v:u%d", k.Now(), i)) }
	for i, u := range users {
		i, u := i, u
		if convert && u.cb {
			granted := func(any) {
				note(i)
				k.AfterCall(u.hold, func(any) { s.Release(u.n) }, nil)
			}
			k.AfterCall(0, func(any) {
				k.AfterCall(u.start, func(any) {
					if s.AcquireCall(u.n, granted, nil) {
						granted(nil)
					}
				}, nil)
			}, nil)
			continue
		}
		k.Go("user", func(p *Proc) {
			p.Sleep(u.start)
			queued := capacity > 0 && (s.QueueLen() > 0 || s.Available() < u.n)
			s.Acquire(p, u.n)
			note(i)
			p.Sleep(u.hold)
			s.Release(u.n)
			if u.cb {
				saved += 3
				if queued {
					saved++
				}
			}
		})
	}
	k.Run(Forever)
	return trace, s, k, saved
}

// TestAcquireCallMatchesAcquire runs each schedule with every user a proc
// and again with some users converted to AcquireCall chains, and requires
// the same grant trace, Throttled, WaitTime and dispatched events, and
// exactly the converted users' resumes fewer. Acquire is AcquireCall plus
// Await, so the proc run is also held to pinned literals.
func TestAcquireCallMatchesAcquire(t *testing.T) {
	ms := Millisecond
	cases := []struct {
		name     string
		capacity int64
		users    []semUser
		// The all-proc run's grant trace and kernel counters, recorded
		// when Acquire still parked on a waiter kind of its own.
		trace               string
		dispatched, resumes uint64
	}{
		{"uncontended", 4, []semUser{
			{true, 0, 1, ms},
			{false, ms, 2, ms},
			{true, 5 * ms, 4, 0},
		}, "[0ns:u0 1.000ms:u1 5.000ms:u2]", 9, 9},
		{"one-unit-contended", 1, []semUser{
			{false, 0, 1, 2 * ms},
			{true, 0, 1, ms},
			{false, 0, 1, ms},
			{true, ms, 1, 3 * ms},
			{true, ms, 1, 0},
		}, "[0ns:u0 2.000ms:u1 3.000ms:u2 4.000ms:u3 7.000ms:u4]", 19, 19},
		{"head-of-line", 3, []semUser{
			{true, 0, 2, 2 * ms},
			{false, 0, 3, ms},
			{true, 0, 1, ms},
			{true, ms, 1, ms},
			{false, 2 * ms, 2, ms},
		}, "[0ns:u0 2.000ms:u1 3.000ms:u2 3.000ms:u3 4.000ms:u4]", 19, 19},
		{"unlimited", 0, []semUser{
			{true, 0, 5, ms},
			{false, 0, 5, ms},
		}, "[0ns:u0 0ns:u1]", 6, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, sp, kp, saved := runSemSchedule(tc.capacity, tc.users, false)
			got, sc, kc, _ := runSemSchedule(tc.capacity, tc.users, true)
			if fmt.Sprint(want) != tc.trace || kp.Dispatched() != tc.dispatched || kp.Resumes() != tc.resumes {
				t.Fatalf("procs: grants %v, dispatched %d, resumes %d; want %s, %d, %d",
					want, kp.Dispatched(), kp.Resumes(), tc.trace, tc.dispatched, tc.resumes)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("grants differ\nprocs:     %v\ncallbacks: %v", want, got)
			}
			if sc.Throttled() != sp.Throttled() || sc.WaitTime() != sp.WaitTime() {
				t.Fatalf("throttled %d wait %v, procs throttled %d wait %v",
					sc.Throttled(), sc.WaitTime(), sp.Throttled(), sp.WaitTime())
			}
			if kc.Dispatched() != kp.Dispatched() {
				t.Fatalf("dispatched %d, procs dispatched %d", kc.Dispatched(), kp.Dispatched())
			}
			if kc.Resumes() != kp.Resumes()-saved {
				t.Fatalf("resumes %d, want %d - %d", kc.Resumes(), kp.Resumes(), saved)
			}
		})
	}
}
