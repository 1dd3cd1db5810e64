package sim

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0ns"},
		{999, "999ns"},
		{1500, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3*Second + 500*Millisecond, "3.500s"},
		{-1500, "-1.500us"},
		{-3*Second - 500*Millisecond, "-3.500s"},
		{math.MaxInt64, "9223372036.855s"},
		{math.MinInt64, "-9223372036.855s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	tt := 1500 * Millisecond
	if tt.Seconds() != 1.5 {
		t.Errorf("Seconds = %v", tt.Seconds())
	}
}

func TestRunEmptyKernel(t *testing.T) {
	k := NewKernel()
	if n := k.Run(Forever); n != 0 {
		t.Fatalf("dispatched %d events on empty kernel", n)
	}
	if k.Now() != 0 {
		t.Fatalf("time advanced to %v", k.Now())
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	k := NewKernel()
	k.Run(5 * Second)
	if k.Now() != 5*Second {
		t.Fatalf("Now = %v, want 5s", k.Now())
	}
}

func TestSleepAdvancesTime(t *testing.T) {
	k := NewKernel()
	var woke Time
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(10 * Millisecond)
		woke = p.Now()
	})
	k.Run(Forever)
	if woke != 10*Millisecond {
		t.Fatalf("woke at %v, want 10ms", woke)
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	k := NewKernel()
	var woke Time
	k.Go("p", func(p *Proc) {
		p.Sleep(-5)
		woke = p.Now()
	})
	k.Run(Forever)
	if woke != 0 {
		t.Fatalf("woke at %v, want 0", woke)
	}
}

// TestHugeDelaySaturates schedules a callback and a sleep whose now+d is
// past the largest Time: both saturate there, so neither fires within
// any finite horizon.
func TestHugeDelaySaturates(t *testing.T) {
	k := NewKernel()
	var fired []string
	k.AfterCall(Millisecond, func(any) {
		k.AfterCall(math.MaxInt64, func(any) { fired = append(fired, "call") }, nil)
	}, nil)
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(Millisecond)
		p.Sleep(math.MaxInt64 - 10)
		fired = append(fired, "sleep")
	})
	k.Run(Second)
	if len(fired) != 0 {
		t.Fatalf("%v fired by 1s; a saturated delay must not wrap into the past", fired)
	}
	k.Run(Forever)
	if fmt.Sprint(fired) != "[call sleep]" || k.Now() != math.MaxInt64 {
		t.Fatalf("fired %v, Now = %d; want both at the largest Time", fired, int64(k.Now()))
	}
	k.Close()
}

func TestEventOrderingSameTime(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.AfterCall(Millisecond, func(any) { order = append(order, i) }, nil)
	}
	k.Run(Forever)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v; same-time events must fire in schedule order", order)
		}
	}
}

func TestAfterCallFiresInTimeOrder(t *testing.T) {
	k := NewKernel()
	var times []Time
	note := func(any) { times = append(times, k.Now()) }
	k.AfterCall(3*Millisecond, note, nil)
	k.AfterCall(Millisecond, note, nil)
	k.Run(Forever)
	if len(times) != 2 || times[0] != Millisecond || times[1] != 3*Millisecond {
		t.Fatalf("times = %v", times)
	}
}

// TestHeapPopsInKeyOrder schedules callbacks at pseudo-random times, many
// of them equal, from callbacks that run at interleaved times, and
// requires every event to fire in (t, seq) order: time never goes back,
// and events of one instant fire in the order they were scheduled.
func TestHeapPopsInKeyOrder(t *testing.T) {
	k := NewKernel()
	x := uint64(1)
	next := func(n uint64) uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return (x >> 33) % n
	}
	type fired struct {
		t     Time
		order int
	}
	var got []fired
	scheduled := 0
	var fire func(any)
	fire = func(a any) {
		got = append(got, fired{k.Now(), a.(int)})
		for i := next(3); i > 0 && scheduled < 5000; i-- {
			scheduled++
			k.AfterCall(Time(next(40)), fire, scheduled)
		}
	}
	for scheduled < 200 {
		scheduled++
		k.AfterCall(Time(next(40)), fire, scheduled)
	}
	k.Run(Forever)
	if len(got) != scheduled {
		t.Fatalf("%d events fired, %d scheduled", len(got), scheduled)
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if b.t < a.t || (b.t == a.t && b.order < a.order) {
			t.Fatalf("event %d fired at %v after event %d at %v", b.order, b.t, a.order, a.t)
		}
	}
}

// TestDispatchMatchesKeySort schedules callbacks and process resumes with
// delays from 0 to 200ms and requires the dispatch order to equal a
// reference sort of every scheduled event by (t, seq). The delays put
// events at the current instant, at equal times, out of order within a
// few hundred nanoseconds, across the first millisecond and far beyond
// it, so every path through the event queue is taken.
func TestDispatchMatchesKeySort(t *testing.T) {
	k := NewKernel()
	x := uint64(7)
	next := func(n uint64) uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return (x >> 33) % n
	}
	delay := func() Time {
		switch next(6) {
		case 0:
			return 0
		case 1:
			return Time(next(8)) * 64
		case 2:
			return Time(next(4000))
		case 3:
			return Time(next(2000)) * 500
		case 4:
			return Time(next(200)) * Millisecond
		default:
			return Time(next(uint64(200 * Millisecond)))
		}
	}
	// key is an event's (t, seq): seq counts the test's schedule calls,
	// which make every event the kernel gets.
	type key struct {
		t   Time
		seq int
	}
	var want, got []key
	sched := func(d Time) key {
		kk := key{k.Now() + d, len(want) + 1}
		want = append(want, kk)
		return kk
	}
	fired := func(kk key) {
		if k.Now() != kk.t {
			t.Fatalf("event %d fired at %v, scheduled for %v", kk.seq, k.Now(), kk.t)
		}
		got = append(got, kk)
	}
	const budget = 30000
	var spawn func()
	var fire func(any)
	fire = func(a any) {
		fired(a.(key))
		for i := next(4); i > 0 && len(want) < budget; i-- {
			if next(3) == 0 {
				spawn()
				continue
			}
			d := delay()
			k.AfterCall(d, fire, sched(d))
		}
	}
	spawn = func() {
		start := sched(0)
		k.Go("p", func(p *Proc) {
			fired(start)
			for i := next(5); i > 0 && len(want) < budget; i-- {
				d := delay()
				kk := sched(d)
				p.Sleep(d)
				fired(kk)
				if next(2) == 0 && len(want) < budget {
					d := delay()
					k.AfterCall(d, fire, sched(d))
				}
			}
		})
	}
	for len(want) < 300 {
		if next(4) == 0 {
			spawn()
			continue
		}
		d := delay()
		k.AfterCall(d, fire, sched(d))
	}
	k.Run(Forever)
	if len(want) < budget {
		t.Fatalf("only %d events scheduled, want %d", len(want), budget)
	}
	sort.Slice(want, func(i, j int) bool {
		a, b := want[i], want[j]
		return a.t < b.t || (a.t == b.t && a.seq < b.seq)
	})
	if len(got) != len(want) {
		t.Fatalf("%d events fired, %d scheduled", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch %d was event %d at %v, want event %d at %v",
				i, got[i].seq, got[i].t, want[i].seq, want[i].t)
		}
	}
}

// TestRunUntilThenScheduleAroundFarEvent stops Run with only a far event
// queued, then schedules from outside Run events before it, at its instant
// and after it: each fires in (t, seq) order, the new event at the far
// event's instant after the far event.
func TestRunUntilThenScheduleAroundFarEvent(t *testing.T) {
	k := NewKernel()
	var got []string
	note := func(a any) { got = append(got, fmt.Sprintf("%s@%v", a, k.Now())) }
	k.AfterCall(Microsecond, note, "first")
	k.AfterCall(100*Millisecond, note, "far")
	if n := k.Run(10 * Millisecond); n != 1 {
		t.Fatalf("Run(10ms) dispatched %d events, want 1", n)
	}
	k.AfterCall(150*Millisecond, note, "after")
	k.AfterCall(90*Millisecond, note, "same")
	k.AfterCall(50*Millisecond, note, "before")
	k.AfterCall(5*Microsecond, note, "near")
	k.AfterCall(0, note, "now")
	k.Run(Forever)
	want := []string{"first@1.000us", "now@10.000ms", "near@10.005ms", "before@60.000ms",
		"far@100.000ms", "same@100.000ms", "after@160.000ms"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

// TestLoneEventDelaysAroundOneMillisecond chains callbacks, each the only
// queued event, whose delays sweep from 0.98ms to 1.07ms in 37ns steps:
// across the end of the kernel's first-millisecond window, from every
// offset within its buckets. Each fires exactly on time.
func TestLoneEventDelaysAroundOneMillisecond(t *testing.T) {
	k := NewKernel()
	d, due, fired := 980*Microsecond, Microsecond, 0
	var fire func(any)
	fire = func(any) {
		if k.Now() != due {
			t.Fatalf("event %d fired at %v, due at %v", fired, k.Now(), due)
		}
		fired++
		if d += 37; d < 1070*Microsecond {
			due = k.Now() + d
			k.AfterCall(d, fire, nil)
		}
	}
	k.AfterCall(due, fire, nil)
	k.Run(Forever)
	if want := 1 + int((90*Microsecond-1)/37); fired != want {
		t.Fatalf("%d events fired, want %d", fired, want)
	}
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	k := NewKernel()
	fired := false
	k.AfterCall(10*Second, func(any) { fired = true }, nil)
	k.Run(5 * Second)
	if fired {
		t.Fatal("event past until-boundary fired")
	}
	if k.Now() != 5*Second {
		t.Fatalf("Now = %v", k.Now())
	}
	k.Run(Forever)
	if !fired {
		t.Fatal("event did not fire on resumed run")
	}
}

func TestProcIdentity(t *testing.T) {
	k := NewKernel()
	var id int64
	var name string
	p := k.Go("worker", func(p *Proc) {
		id = p.id
		name = p.name
		if p.k != k {
			t.Error("Kernel() mismatch")
		}
	})
	k.Run(Forever)
	if id != p.id || name != "worker" {
		t.Fatalf("id=%d name=%q", id, name)
	}
	if !p.done {
		t.Fatal("proc not done")
	}
}

func TestLiveCount(t *testing.T) {
	k := NewKernel()
	k.Go("a", func(p *Proc) { p.Sleep(Second) })
	k.Go("b", func(p *Proc) { p.Sleep(2 * Second) })
	if k.Live() != 2 {
		t.Fatalf("Live = %d before run", k.Live())
	}
	k.Run(1500 * Millisecond)
	if k.Live() != 1 {
		t.Fatalf("Live = %d at 1.5s", k.Live())
	}
	k.Run(Forever)
	if k.Live() != 0 {
		t.Fatalf("Live = %d at end", k.Live())
	}
}

func TestNestedSpawn(t *testing.T) {
	k := NewKernel()
	var trace []string
	k.Go("parent", func(p *Proc) {
		trace = append(trace, "parent-start")
		p.k.Go("child", func(c *Proc) {
			trace = append(trace, "child")
		})
		p.Sleep(Millisecond)
		trace = append(trace, "parent-end")
	})
	k.Run(Forever)
	want := []string{"parent-start", "child", "parent-end"}
	if fmt.Sprint(trace) != fmt.Sprint(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

func TestRunReentryPanics(t *testing.T) {
	k := NewKernel()
	k.AfterCall(0, func(any) {
		defer func() {
			if recover() == nil {
				t.Error("nested Run did not panic")
			}
		}()
		k.Run(Forever)
	}, nil)
	k.Run(Forever)
}

// determinismTrace runs a contended scenario and returns an execution trace
// and the drained kernel.
func determinismTrace(seedProcs int) ([]string, *Kernel) {
	k := NewKernel()
	m := NewMutex(k, "m")
	q := NewQueue[int](k, "q", 4)
	var trace []string
	for i := 0; i < seedProcs; i++ {
		i := i
		k.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			for j := 0; j < 20; j++ {
				m.Lock(p)
				p.Sleep(Time(100 + i*13))
				trace = append(trace, fmt.Sprintf("w%d.%d@%d", i, j, p.Now()))
				m.Unlock(p)
				q.Push(p, i*100+j)
			}
		})
	}
	k.Go("drain", func(p *Proc) {
		for i := 0; i < seedProcs*20; i++ {
			v, ok := q.Pop(p)
			if !ok {
				return
			}
			trace = append(trace, fmt.Sprintf("pop%d@%d", v, p.Now()))
			p.Sleep(50)
		}
	})
	k.Run(Forever)
	return trace, k
}

func TestDeterminism(t *testing.T) {
	a, _ := determinismTrace(5)
	b, _ := determinismTrace(5)
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("two identical runs produced different traces")
	}
}

func TestDispatchedCounter(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 7; i++ {
		k.AfterCall(Time(i), func(any) {}, nil)
	}
	n := k.Run(Forever)
	if n != 7 || k.Dispatched() != 7 {
		t.Fatalf("n=%d dispatched=%d", n, k.Dispatched())
	}
}

// TestKernelWorkCounters pins the kernel's work counters on a fixed
// contended scenario. They count simulated work, not host work, so they
// must not move when only the way processes are switched changes.
func TestKernelWorkCounters(t *testing.T) {
	_, k := determinismTrace(8)
	if d, r, s := k.Dispatched(), k.Resumes(), k.Spawned(); d != 648 || r != 648 || s != 9 {
		t.Fatalf("dispatched=%d resumes=%d spawned=%d, want 648/648/9", d, r, s)
	}
}

func TestResumesSkipsFinishedProcs(t *testing.T) {
	k := NewKernel()
	var q *Proc
	q = k.Go("short", func(p *Proc) {})
	k.Go("waker", func(p *Proc) {
		p.Sleep(1)
		q.resumeAt(k.Now()) // stale: q has already returned
	})
	k.Run(Forever)
	if d, r, s := k.Dispatched(), k.Resumes(), k.Spawned(); d != 4 || r != 3 || s != 2 {
		t.Fatalf("dispatched=%d resumes=%d spawned=%d, want 4/3/2", d, r, s)
	}
}

func TestProcPanicSurfacesFromRun(t *testing.T) {
	k := NewKernel()
	boom := k.Go("boom", func(p *Proc) {
		p.Sleep(10)
		panic("boom")
	})
	k.Go("bystander", func(p *Proc) { p.Sleep(Second) })
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want boom", r)
			}
		}()
		k.Run(Forever)
	}()
	if k.Now() != 10 {
		t.Fatalf("Now = %v, want 10ns", k.Now())
	}
	if !boom.done || k.Live() != 1 || k.running != nil {
		t.Fatalf("after panic: done=%v live=%d running=%v", boom.done, k.Live(), k.running)
	}
	// The kernel stays usable: the bystander finishes on the next Run, and
	// a new process does not land on the panicked one's dead coroutine.
	ran := false
	k.Go("after", func(p *Proc) { ran = true })
	k.Run(Forever)
	if k.Live() != 0 || k.Now() != Second || !ran {
		t.Fatalf("after rerun: live=%d now=%v ran=%v", k.Live(), k.Now(), ran)
	}
}

// TestCloseUnwindsParkedProcs parks a process in every blocking primitive,
// closes the kernel, and checks that each one unwound: its deferred calls
// ran (including one that blocks again) and its goroutine is gone.
func TestCloseUnwindsParkedProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	m, cm := NewMutex(k, "m"), NewMutex(k, "cm")
	c := NewCond(cm)
	empty := NewQueue[int](k, "empty", 0)
	full := NewQueue[int](k, "full", 1)
	full.TryPush(0)
	sem := NewSemaphore(k, "sem", 1)
	sem.TryAcquire(1)
	ev := NewEvent(k)
	blockers := []struct {
		name  string
		block func(p *Proc)
	}{
		{"sleep", func(p *Proc) { p.Sleep(Second) }},
		{"pop", func(p *Proc) { empty.Pop(p) }},
		{"push", func(p *Proc) { full.Push(p, 1) }},
		{"lock", func(p *Proc) { m.Lock(p) }},
		{"wait", func(p *Proc) { cm.Lock(p); c.WaitCall(Wake, p); p.Await() }},
		{"acquire", func(p *Proc) { sem.Acquire(p, 1) }},
		{"event", func(p *Proc) { ev.Wait(p) }},
	}
	var names, unwound []string
	k.Go("holder", func(p *Proc) {
		m.Lock(p)
		p.Sleep(Second)
	})
	for _, b := range blockers {
		name, block := b.name, b.block
		names = append(names, name)
		k.Go(name, func(p *Proc) {
			defer func() { unwound = append(unwound, name) }()
			defer p.Sleep(Millisecond) // blocks again while unwinding
			block(p)
			t.Errorf("%s: returned from a blocked call", name)
		})
	}
	k.Run(Millisecond)
	if k.Live() != len(names)+1 {
		t.Fatalf("Live = %d before Close, want %d", k.Live(), len(names)+1)
	}
	never := k.Go("never", func(p *Proc) { t.Error("never-dispatched proc ran") })
	parked, now := runtime.NumGoroutine(), k.Now()
	k.Close()
	k.Close() // idempotent
	if k.Now() != now {
		t.Fatalf("Close advanced the clock from %v to %v", now, k.Now())
	}
	if fmt.Sprint(unwound) != fmt.Sprint(names) {
		t.Fatalf("unwound %v, want %v", unwound, names)
	}
	if k.Live() != 0 || !never.done {
		t.Fatalf("Live = %d, never.done = %v after Close", k.Live(), never.done)
	}
	// Other tests' pool workers may still be exiting, so the count can
	// only be bounded, not matched exactly.
	if n := runtime.NumGoroutine(); n > base || parked-n < len(names)+2 {
		t.Fatalf("NumGoroutine = %d after Close, %d before it, baseline %d", n, parked, base)
	}
}

func TestCloseMisuse(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	k := NewKernel()
	k.AfterCall(0, func(any) { mustPanic("Close during Run", k.Close) }, nil)
	k.Run(Forever)
	k.Close()
	mustPanic("Go after Close", func() { k.Go("late", func(*Proc) {}) })
}

// TestFinishedProcCoroutineIsReused checks that a process spawned after
// another one finished runs on the finished one's coroutine.
func TestFinishedProcCoroutineIsReused(t *testing.T) {
	k := NewKernel()
	a := k.Go("a", func(p *Proc) { p.Sleep(1) })
	k.Run(Forever)
	b := k.Go("b", func(p *Proc) { p.Sleep(1) })
	if b.c != a.c {
		t.Fatal("b did not reuse a's coroutine")
	}
	k.Run(Forever)
	if !b.done || k.Now() != 2 {
		t.Fatalf("b done=%v now=%v", b.done, k.Now())
	}
}

// TestProcsSliceCompacts checks that finished processes do not pile up in
// the kernel's Close list.
func TestProcsSliceCompacts(t *testing.T) {
	k := NewKernel()
	k.Go("spawner", func(p *Proc) {
		for i := 0; i < 10000; i++ {
			p.k.Go("child", func(*Proc) {})
			p.Sleep(0)
		}
	})
	k.Run(Forever)
	if n := len(k.procs); n > 64 {
		t.Fatalf("len(procs) = %d after 10000 short-lived procs", n)
	}
}

// TestWakeFromCallbackResumesInline checks that Wake from a callback
// switches into the awaiting process inside that callback's event: the
// process runs before the callback's next statement, with one resume and
// no event of its own.
func TestWakeFromCallbackResumesInline(t *testing.T) {
	k := NewKernel()
	var trace []string
	note := func(s string) { trace = append(trace, fmt.Sprintf("%v:%s", k.Now(), s)) }
	w := k.Go("w", func(p *Proc) {
		p.Await()
		note("woken")
	})
	k.Run(Forever)
	d0, r0 := k.Dispatched(), k.Resumes()
	k.AfterCall(Millisecond, func(any) {
		note("cb")
		Wake(w)
		note("cb-after")
	}, nil)
	k.Run(Forever)
	if want := "[1.000ms:cb 1.000ms:woken 1.000ms:cb-after]"; fmt.Sprint(trace) != want {
		t.Fatalf("trace = %v, want %s", trace, want)
	}
	if d, r := k.Dispatched()-d0, k.Resumes()-r0; d != 1 || r != 1 || !w.done {
		t.Fatalf("dispatched %d resumes %d done %v, want 1/1/true", d, r, w.done)
	}
}

// TestWakeByRunningProcSkipsAwait checks that a request completed inline,
// with Wake called by the process itself, lets the next Await return at
// once, and only that one.
func TestWakeByRunningProcSkipsAwait(t *testing.T) {
	k := NewKernel()
	var at []Time
	w := k.Go("w", func(p *Proc) {
		Wake(p)
		p.Await()
		at = append(at, p.Now())
		p.Await()
		at = append(at, p.Now())
	})
	k.AfterCall(Millisecond, func(any) { Wake(w) }, nil)
	k.Run(Forever)
	if fmt.Sprint(at) != "[0ns 1.000ms]" || k.Resumes() != 2 {
		t.Fatalf("Await returned at %v after %d resumes, want [0ns 1.000ms] and 2", at, k.Resumes())
	}
}

// TestWakeFinishedProcIsNoop checks that Wake of a finished process neither
// resumes it nor counts a resume.
func TestWakeFinishedProcIsNoop(t *testing.T) {
	k := NewKernel()
	w := k.Go("w", func(*Proc) {})
	k.AfterCall(Millisecond, func(any) { Wake(w) }, nil)
	k.Run(Forever)
	if d, r := k.Dispatched(), k.Resumes(); d != 2 || r != 1 {
		t.Fatalf("dispatched %d resumes %d, want 2/1", d, r)
	}
}

// TestWakeWhileAnotherProcRunsPanics checks that one process cannot resume
// another through Wake.
func TestWakeWhileAnotherProcRunsPanics(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	parked := k.Go("parked", func(p *Proc) { p.Await() })
	k.Go("other", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Wake while another process runs did not panic")
			}
		}()
		Wake(parked)
	})
	k.Run(Forever)
}

// TestDueNow: DueNow sees another event due at the current instant
// wherever it waits — the ready ring, the wheel, or the far heap it
// migrates from — and nothing due later.
func TestDueNow(t *testing.T) {
	k := NewKernel()
	var got []string
	note := func(a any) { got = append(got, fmt.Sprintf("%s:%v", a, k.DueNow())) }
	k.AfterCall(10, note, "wheel1")          // due with wheel2 at 10
	k.AfterCall(10, note, "wheel2")          // the last one due at 10
	k.AfterCall(11, note, "alone")           // nothing else at 11
	k.AfterCall(5*Millisecond, note, "far1") // beyond the wheel's window
	k.AfterCall(5*Millisecond, note, "far2")
	k.AfterCall(20, func(any) {
		k.AfterCall(0, note, "ready") // queued for the current instant
		note("spawner")
	}, nil)
	if k.DueNow() {
		t.Fatal("DueNow before Run with nothing due at time 0")
	}
	k.Run(Forever)
	want := "[wheel1:true wheel2:false alone:false spawner:true ready:false far1:true far2:false]"
	if fmt.Sprint(got) != want {
		t.Fatalf("got %v, want %v", got, want)
	}
}
