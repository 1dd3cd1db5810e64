// Package b is the dependency side of the driver summary-layer fixture:
// it defines the primitive facts (a global write, a lock acquisition, a
// pool release, a retention) that package a must observe transitively
// through the summary table, and references that are not calls (a method
// value, a package-level initializer).
package b

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// Counter is package-level mutable state.
var Counter int

// OnBump is initialized at package level: the package's init references
// Bump.
var OnBump = Bump

// Bump writes the global directly.
func Bump() {
	Counter++
}

// Rec is a pooled record.
type Rec struct {
	N int
}

// Pool recycles Recs.
type Pool struct {
	free []*Rec
	last *Rec
}

// Put releases r (parameter 0) to the pool's free list.
func (p *Pool) Put(r *Rec) {
	p.free = append(p.free, r)
}

// Keep retains r (parameter 0) beyond the call.
func (p *Pool) Keep(r *Rec) {
	p.last = r
}

// LockShard acquires (and releases) one PG/shard lock.
func LockShard(pr *sim.Proc, locks *core.ShardLocks) {
	l := locks.Get(9)
	l.Lock(pr)
	l.Unlock(pr)
}

// Release returns r to the pool in callback form.
func (p *Pool) Release(r any) { p.free = append(p.free, r.(*Rec)) }

// Later hands Release to the kernel as a method value: a reference to it,
// not a call.
func Later(k *sim.Kernel, p *Pool, r *Rec) {
	k.AfterCall(0, p.Release, r)
}
