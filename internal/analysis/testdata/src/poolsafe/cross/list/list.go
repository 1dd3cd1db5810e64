// Package list is the generic side of the cross-package poolsafe fixture:
// a free list parameterised by its record type, as sim.FreeList is. Its
// Put releases through a generic receiver, which callers see only through
// the driver's summary of the generic method's origin.
package list

// List recycles records of type T.
type List[T any] struct {
	free []*T
}

// Get pops a recycled record, or returns a new one.
func (l *List[T]) Get() *T {
	if n := len(l.free); n > 0 {
		v := l.free[n-1]
		l.free = l.free[:n-1]
		return v
	}
	return new(T)
}

// Put returns v to the list; v must not be touched afterwards.
func (l *List[T]) Put(v *T) { l.free = append(l.free, v) }
