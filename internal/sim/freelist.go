package sim

// FreeList recycles records of type T, so a hot path that makes one per op
// allocates only until the list has warmed up. The kernel runs one event at
// a time, so it takes no lock; the zero value is ready to use.
//
// Put does not reset the record: the owner clears what it must before Put
// (or after Get), and may keep buffers the record holds for the next use.
// A record must not be touched after Put.
//
// There is no constructor hook: a record that needs wiring (a back pointer,
// a bound callback) is wired by its owner after Get. A call on Get's empty
// path would keep Get from inlining, and Get runs once per kernel event.
type FreeList[T any] struct {
	free []*T
}

// Get pops the most recently put record, or returns new(T).
func (l *FreeList[T]) Get() *T {
	if n := len(l.free); n > 0 {
		v := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return v
	}
	return new(T)
}

// Put returns v to the list.
func (l *FreeList[T]) Put(v *T) { l.free = append(l.free, v) }
