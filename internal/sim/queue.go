package sim

// Queue is a FIFO channel-like queue of T with optional capacity.
// Push blocks when the queue is full (capacity > 0); Pop blocks when it is
// empty. A callback chain uses PushCall and PopCall instead; both kinds of
// waiter share one FIFO per side, and a callback waiter is woken in the
// (t, seq) slot where a blocked process would resume. Items and waiter
// queues live in ring buffers, so steady-state traffic does not allocate.
type Queue[T any] struct {
	k        *Kernel
	name     string
	capacity int
	items    fifo[T]
	getters  fifo[waiter]
	putters  fifo[waiter]
	closed   bool
}

// NewQueue creates a queue. capacity <= 0 means unbounded.
func NewQueue[T any](k *Kernel, name string, capacity int) *Queue[T] {
	return &Queue[T]{k: k, name: name, capacity: capacity}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.items.len() }

// Close marks the queue closed: Pop on an empty closed queue returns
// ok=false instead of blocking, and blocked getters wake. Blocked putters
// wake too, and their Push panics as on any closed queue.
func (q *Queue[T]) Close() {
	q.closed = true
	for q.getters.len() > 0 {
		q.wake(q.getters.pop())
	}
	for q.putters.len() > 0 {
		q.wake(q.putters.pop())
	}
}

// wake continues a waiter where a blocked process would resume.
func (q *Queue[T]) wake(w waiter) { q.k.AfterCall(0, w.fn, w.arg) }

// Push appends v, blocking p while the queue is full: it is PushCall with
// Wake, then Await, until the push lands. Pushing to a closed queue panics
// (a model bug).
func (q *Queue[T]) Push(p *Proc, v T) {
	for !q.PushCall(v, Wake, p) {
		p.Await()
	}
}

// PushCall appends v and reports true if there is room. Otherwise it
// queues fn(arg) as a putter and reports false: fn runs when a Pop makes
// room or Close wakes it, and calls PushCall again, since a running
// producer may take the room first. Pushing to a closed queue panics.
func (q *Queue[T]) PushCall(v T, fn func(any), arg any) bool {
	if q.closed {
		panic("sim: Push to closed Queue " + q.name)
	}
	if q.capacity > 0 && q.items.len() >= q.capacity {
		q.putters.push(waiter{fn: fn, arg: arg})
		return false
	}
	q.add(v)
	return true
}

// TryPush appends v only if there is room, reporting success.
func (q *Queue[T]) TryPush(v T) bool {
	if q.closed {
		panic("sim: Push to closed Queue " + q.name)
	}
	if q.capacity > 0 && q.items.len() >= q.capacity {
		return false
	}
	q.add(v)
	return true
}

func (q *Queue[T]) add(v T) {
	q.items.push(v)
	if q.getters.len() > 0 {
		q.wake(q.getters.pop())
	}
}

// Pop removes and returns the head item, blocking p while the queue is
// empty: it is PopCall with Wake, then Await, until an item is taken. ok
// is false only if the queue was closed and drained.
func (q *Queue[T]) Pop(p *Proc) (v T, ok bool) {
	for {
		if v, ok = q.PopCall(Wake, p); ok || q.closed {
			return v, ok
		}
		p.Await()
	}
}

// PopCall removes and returns the head item if there is one. Otherwise it
// reports ok false and, unless the queue is closed, queues fn(arg) as a
// getter: fn runs when a push or Close wakes it, and calls PopCall again,
// since a running consumer may take the item first.
func (q *Queue[T]) PopCall(fn func(any), arg any) (v T, ok bool) {
	if q.items.len() > 0 {
		return q.take(), true
	}
	if !q.closed {
		q.getters.push(waiter{fn: fn, arg: arg})
	}
	return v, false
}

// TryPop removes and returns the head item without blocking.
func (q *Queue[T]) TryPop() (v T, ok bool) {
	if q.items.len() == 0 {
		return v, false
	}
	return q.take(), true
}

func (q *Queue[T]) take() T {
	v := q.items.pop()
	if q.putters.len() > 0 {
		q.wake(q.putters.pop())
	}
	return v
}
