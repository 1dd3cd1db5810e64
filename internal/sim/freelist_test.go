package sim

import "testing"

// TestFreeListReuse checks that the list hands back the most recently put
// record as it was put, clears the slot it pops, and makes a zero record
// when empty.
func TestFreeListReuse(t *testing.T) {
	type rec struct{ n int }
	var l FreeList[rec]
	a, b := l.Get(), l.Get()
	if a == b || *a != (rec{}) || *b != (rec{}) {
		t.Fatalf("empty list: got %p %+v and %p %+v, want two distinct zero records", a, *a, b, *b)
	}
	a.n, b.n = 1, 2
	l.Put(a)
	l.Put(b)
	if got := l.Get(); got != b || got.n != 2 {
		t.Fatalf("first Get = %p %+v, want the last Put %p, unreset", got, *got, b)
	}
	if l.free[:2][1] != nil {
		t.Fatal("Get left the popped record in the backing array")
	}
	if got := l.Get(); got != a {
		t.Fatalf("second Get = %p, want %p", got, a)
	}
	if got := l.Get(); got == a || got == b {
		t.Fatal("Get on a drained list returned a record it had handed out")
	}
}

// TestFreeListGetAllocatesNothingWarm pins the point of the type: once
// warm, a Get/Put cycle allocates nothing.
func TestFreeListGetAllocatesNothingWarm(t *testing.T) {
	var l FreeList[event]
	l.Put(l.Get())
	if n := testing.AllocsPerRun(100, func() { l.Put(l.Get()) }); n != 0 {
		t.Fatalf("warm Get/Put allocates %v times, want 0", n)
	}
}
