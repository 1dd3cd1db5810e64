package sim

import (
	"fmt"
	"testing"
)

// TestCancelledTimerNeverRuns cancels a timer in each place one waits —
// the ready ring, the wheel and the far heap — and keeps one: only the
// kept one runs and Dispatched counts it alone. The drain ends at the
// latest cancelled timer's instant, where it would have ended had the
// cancelled callbacks run as no-ops.
func TestCancelledTimerNeverRuns(t *testing.T) {
	k := NewKernel()
	var got []string
	note := func(a any) { got = append(got, fmt.Sprintf("%s@%v", a, k.Now())) }
	ready := k.AfterTimer(0, note, "ready")
	wheel := k.AfterTimer(500*Microsecond, note, "wheel")
	far := k.AfterTimer(50*Millisecond, note, "far")
	k.AfterTimer(Millisecond+7, note, "kept")
	k.Cancel(ready)
	k.Cancel(wheel)
	k.Cancel(far)
	k.Cancel(far) // a second Cancel is a no-op
	if n := k.Run(Forever); n != 1 {
		t.Fatalf("Run dispatched %d events, want 1", n)
	}
	if want := "[kept@1.000ms]"; fmt.Sprint(got) != want {
		t.Fatalf("ran %v, want %v", got, want)
	}
	if k.Dispatched() != 1 {
		t.Fatalf("Dispatched = %d, want 1", k.Dispatched())
	}
	if k.Now() != 50*Millisecond {
		t.Fatalf("clock at %v after the drain, want the far timer's 50ms", k.Now())
	}
	var zero Timer
	k.Cancel(zero) // armed nowhere: a no-op
}

// TestStaleTimerHandle: a handle whose timer already ran, and a handle
// whose event record a new event has since reused, cancel nothing.
func TestStaleTimerHandle(t *testing.T) {
	k := NewKernel()
	ran := 0
	count := func(any) { ran++ }
	first := k.AfterTimer(10, count, nil)
	k.Run(Forever)
	k.Cancel(first) // ran, and its record sits on the free list
	second := k.AfterTimer(10, count, nil)
	if second.ev != first.ev {
		t.Fatal("the second timer did not reuse the first one's record")
	}
	k.Cancel(first) // the record now belongs to the second timer
	k.Run(Forever)
	if ran != 2 {
		t.Fatalf("%d timers ran, want 2", ran)
	}
	// A process resume reusing the record is not cancelled either.
	third := k.AfterTimer(10, count, nil)
	k.Cancel(third)
	resumed := false
	k.Go("p", func(p *Proc) {
		k.Cancel(third)
		p.Sleep(5)
		resumed = true
	})
	k.Run(Forever)
	if !resumed || ran != 2 {
		t.Fatalf("resumed = %v, %d timers ran; want true, 2", resumed, ran)
	}
}

// TestRunDrainsPastCancelledTimer: the clock of a Run that stops between
// a live event and a later cancelled timer is the same as with the timer
// run as a no-op: the Run(until) boundary, or, for a drain, the timer's
// instant, whether the timer left the far heap by being popped or in a
// rebuild. Events scheduled afterwards run in time order.
func TestRunDrainsPastCancelledTimer(t *testing.T) {
	k := NewKernel()
	var got []string
	note := func(a any) { got = append(got, fmt.Sprintf("%s@%v", a, k.Now())) }
	k.AfterCall(Microsecond, note, "first")
	k.Cancel(k.AfterTimer(100*Millisecond, note, "cancelled"))
	k.Run(50 * Millisecond)
	if k.Now() != 50*Millisecond {
		t.Fatalf("clock at %v after Run(50ms), want 50ms", k.Now())
	}
	k.Run(Forever)
	if k.Now() != 100*Millisecond {
		t.Fatalf("clock at %v after the drain, want the cancelled timer's 100ms", k.Now())
	}
	k.AfterCall(Microsecond, note, "after")
	k.AfterCall(0, note, "now")
	var timers []Timer
	for i := 0; i <= farDeadFloor; i++ {
		timers = append(timers, k.AfterTimer(Time(i+1)*Second, note, "dropped"))
	}
	for _, tm := range timers {
		k.Cancel(tm)
	}
	if len(k.far) != 0 {
		t.Fatalf("%d far entries after cancelling them all, want a rebuild to 0", len(k.far))
	}
	k.Run(Forever)
	want := "[first@1.000us now@100.000ms after@100.001ms]"
	if fmt.Sprint(got) != want {
		t.Fatalf("order = %v, want %v", got, want)
	}
	if want := 100*Millisecond + Time(farDeadFloor+1)*Second; k.Now() != want {
		t.Fatalf("clock at %v after the drain, want the last cancelled timer's %v", k.Now(), want)
	}
}

// TestCancelMatchesNoopReference arms timers at mixed delays — the
// current instant, ties at one time, inside the wheel's window and far
// beyond it — from outside Run and from callbacks, and cancels a random
// subset as it goes, enough for the far heap to rebuild. A reference
// kernel makes the same schedule calls with AfterCall, its cancelled
// callbacks running as no-ops. Every surviving callback runs in the same
// (t, seq) order on both, both drains end at the same instant, and the
// real kernel dispatches exactly the reference's events less the
// cancelled ones.
func TestCancelMatchesNoopReference(t *testing.T) {
	type fired struct {
		t  Time
		id int
	}
	run := func(real bool) (got []fired, end Time, dispatched uint64, cancelled, rebuilds int) {
		k := NewKernel()
		x := uint64(11)
		next := func(n uint64) uint64 {
			x = x*6364136223846793005 + 1442695040888963407
			return (x >> 33) % n
		}
		delay := func() Time {
			switch next(6) {
			case 0:
				return 0
			case 1:
				return 300 * Microsecond // ties at one instant
			case 2:
				return Time(next(900 * uint64(Microsecond)))
			case 3:
				return 50 * Millisecond // ties far beyond the window
			default:
				return Time(next(uint64(80 * Millisecond)))
			}
		}
		var timers []Timer // by id; the real kernel's handles
		var dead []bool    // by id: cancelled
		var armed []int    // ids armed, neither run nor cancelled
		var fire func(any)
		arm := func() {
			id := len(dead)
			dead = append(dead, false)
			armed = append(armed, id)
			d := delay()
			if real {
				timers = append(timers, k.AfterTimer(d, fire, id))
			} else {
				k.AfterCall(d, fire, id)
			}
		}
		cancel := func() {
			i := int(next(uint64(len(armed))))
			id := armed[i]
			armed[i] = armed[len(armed)-1]
			armed = armed[:len(armed)-1]
			dead[id] = true
			cancelled++
			if real {
				before := len(k.far)
				k.Cancel(timers[id])
				if len(k.far) < before {
					rebuilds++
				}
			}
		}
		const budget = 20000
		fire = func(a any) {
			id := a.(int)
			if dead[id] {
				if real {
					t.Fatalf("cancelled timer %d ran", id)
				}
				return // the reference's no-op
			}
			got = append(got, fired{k.Now(), id})
			for i, j := range armed {
				if j == id {
					armed[i] = armed[len(armed)-1]
					armed = armed[:len(armed)-1]
					break
				}
			}
			for n := 1 + next(3); n > 0 && len(dead) < budget; n-- {
				arm()
			}
			for n := next(3); n > 0 && len(armed) > 0; n-- {
				cancel()
			}
		}
		for len(dead) < 500 {
			arm()
		}
		for len(armed) > 300 {
			cancel() // from outside Run: many dead far timers at once
		}
		k.Run(40 * Millisecond)
		k.Run(Forever)
		return got, k.Now(), k.Dispatched(), cancelled, rebuilds
	}
	want, refEnd, refDispatched, _, _ := run(false)
	got, end, dispatched, cancelled, rebuilds := run(true)
	if len(got) != len(want) {
		t.Fatalf("%d callbacks ran, reference ran %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("callback %d was timer %d at %v, reference timer %d at %v",
				i, got[i].id, got[i].t, want[i].id, want[i].t)
		}
	}
	if end != refEnd {
		t.Fatalf("drain ended at %v, reference at %v", end, refEnd)
	}
	if dispatched != refDispatched-uint64(cancelled) {
		t.Fatalf("dispatched %d events, want the reference's %d less %d cancelled",
			dispatched, refDispatched, cancelled)
	}
	if rebuilds == 0 {
		t.Fatal("the far heap never rebuilt")
	}
	t.Logf("%d callbacks, %d cancelled, %d far rebuilds", len(got), cancelled, rebuilds)
}
