package sim

// Queue is a FIFO channel-like queue of T with optional capacity.
// Push blocks when the queue is full (capacity > 0); Pop blocks when it is
// empty. Blocked processes are served in FIFO order. Items and waiter
// queues live in ring buffers, so steady-state traffic does not allocate.
type Queue[T any] struct {
	k        *Kernel
	name     string
	capacity int
	items    fifo[T]
	getters  fifo[*Proc]
	putters  fifo[*Proc]
	closed   bool
}

// NewQueue creates a queue. capacity <= 0 means unbounded.
func NewQueue[T any](k *Kernel, name string, capacity int) *Queue[T] {
	return &Queue[T]{k: k, name: name, capacity: capacity}
}

// Name returns the queue name.
func (q *Queue[T]) Name() string { return q.name }

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.items.len() }

// Cap returns the configured capacity (<=0 means unbounded).
func (q *Queue[T]) Cap() int { return q.capacity }

// Close marks the queue closed: Pop on an empty closed queue returns
// ok=false instead of blocking, and blocked getters wake.
func (q *Queue[T]) Close() {
	q.closed = true
	for q.getters.len() > 0 {
		q.getters.pop().resumeAt(q.k.now)
	}
}

// Push appends v, blocking p while the queue is full. Pushing to a closed
// queue panics (a model bug).
func (q *Queue[T]) Push(p *Proc, v T) {
	for q.capacity > 0 && q.items.len() >= q.capacity && !q.closed {
		q.putters.push(p)
		p.park()
	}
	if q.closed {
		panic("sim: Push to closed Queue " + q.name)
	}
	q.add(v)
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
		q.getters.pop().resumeAt(q.k.now)
	}
}

// Pop removes and returns the head item, blocking p while the queue is
// empty. ok is false only if the queue was closed and drained.
func (q *Queue[T]) Pop(p *Proc) (v T, ok bool) {
	for q.items.len() == 0 {
		if q.closed {
			return v, false
		}
		q.getters.push(p)
		p.park()
	}
	return q.take(), true
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
		q.putters.pop().resumeAt(q.k.now)
	}
	return v
}

// Peek returns the head item without removing it.
func (q *Queue[T]) Peek() (v T, ok bool) {
	if q.items.len() == 0 {
		return v, false
	}
	return q.items.peek(), true
}
