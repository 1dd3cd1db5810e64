package sim

// Proc is a simulated process: a coroutine (see coro.go) whose execution is
// interleaved deterministically by the kernel. Run resumes it for each of
// its events, and every blocking primitive suspends it back to Run. All
// blocking methods must be called from the process's own function.
type Proc struct {
	k    *Kernel
	id   int64
	name string
	done bool
	// woken records a Wake made while the process itself ran, for the
	// next Await to consume.
	woken bool
	c     *coro // the coroutine it runs on; another process's once done
}

// closeUnwind is the panic value that unwinds a process stopped by
// Kernel.Close; the process root recovers it.
type closeUnwind struct{}

// unwind is closeUnwind boxed once, so the processes that inline park do
// not each report it escaping to the heap.
var unwind any = closeUnwind{}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// park suspends the process until the kernel resumes it. Every blocking
// primitive bottoms out here. Once Close has stopped the process, park
// unwinds it instead, so deferred calls run, and a deferred call that
// blocks again unwinds too.
func (p *Proc) park() {
	if !p.c.yield(struct{}{}) {
		panic(unwind)
	}
}

// run executes the process function on p's coroutine.
func (p *Proc) run(fn func(*Proc)) {
	defer p.exit()
	fn(p)
}

// exit runs when the process function returns, panics or is unwound by
// Close. It marks the process finished and re-raises any panic but the
// Close unwind, which ends the coroutine; Run's caller receives it through
// next.
func (p *Proc) exit() {
	p.finish()
	if r := recover(); r != nil {
		if _, ok := r.(closeUnwind); !ok {
			panic(r)
		}
	}
}

func (p *Proc) finish() {
	if !p.done {
		p.done = true
		p.k.live--
	}
}

// close unwinds the process if it has not finished. A process that was
// never dispatched never ran its function, so close marks it finished.
func (p *Proc) close() {
	if p.done {
		return
	}
	p.c.stop()
	p.finish()
}

// resumeAt schedules the process to continue at time t.
func (p *Proc) resumeAt(t Time) { p.k.schedule(t, p) }

// Sleep advances the process by d nanoseconds of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.resumeAt(p.k.after(d))
	p.park()
}

// Await parks the process until Wake resumes it. It is how a process waits
// on a callback-form request made with Wake as its Done and the process as
// its argument. If the request already completed while the process ran,
// Await returns at once.
func (p *Proc) Await() {
	if p.woken {
		p.woken = false
		return
	}
	p.park()
}
