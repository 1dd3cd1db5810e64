//go:build go1.23

package sim

import "iter"

// coro is the iter.Pull coroutine a process runs on. A resume (next) and a
// park (yield) are direct coroutine switches between Run and the process,
// with no goroutine handoff through the scheduler. When a process returns,
// its coroutine goes on the kernel's idle list and the next Go reuses it,
// so a short-lived process costs neither a new goroutine nor iter.Pull's
// allocations.
type coro struct {
	next  func() (struct{}, bool) // Run: resume until the process blocks or returns
	stop  func()                  // Close: unwind the suspended process
	yield func(struct{}) bool     // park: suspend back to Run; false once stopped
	p     *Proc                   // the process it runs, nil while idle
	fn    func(*Proc)
}

// start binds p and fn to an idle coroutine, or a new one. The process
// function runs from p's first dispatch.
func (k *Kernel) start(p *Proc, fn func(*Proc)) {
	var c *coro
	if n := len(k.idle); n > 0 {
		c = k.idle[n-1]
		k.idle[n-1] = nil
		k.idle = k.idle[:n-1]
	} else {
		c = &coro{}
		c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
			c.yield = yield
			for {
				c.p.run(c.fn)
				c.p, c.fn = nil, nil
				k.idle = append(k.idle, c)
				if !yield(struct{}{}) {
					return
				}
			}
		})
	}
	c.p, c.fn = p, fn
	p.c = c
}
