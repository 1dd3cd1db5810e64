package sim

// Resource models a multi-server service station (a device with k parallel
// channels, a CPU with k cores, a NIC, ...). Use acquires one server, holds
// it for the given service time, and releases it; requests queue FIFO when
// all servers are busy. The resource integrates busy-time so utilization can
// be reported.
//
// A process calls Use; a callback chain calls UseCall with a Job and is
// continued by the job's Done callback. Both kinds of request share one FIFO,
// and each UseCall event lands in the (t, seq) slot that the matching Use
// resume would have used, so converting a process to a callback chain
// changes Kernel.Resumes and nothing else.
type Resource struct {
	k       *Kernel
	name    string
	servers int64
	sem     *Semaphore

	busy         int64
	lastChange   Time
	busyIntegral Time // sum over time of (busy servers * dt)
}

// NewResource creates a station with the given number of parallel servers
// (must be >= 1).
func NewResource(k *Kernel, name string, servers int64) *Resource {
	if servers < 1 {
		panic("sim: Resource needs at least one server: " + name)
	}
	return &Resource{
		k:       k,
		name:    name,
		servers: servers,
		sem:     NewSemaphore(k, name+".sem", servers),
	}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Servers returns the number of parallel servers.
func (r *Resource) Servers() int64 { return r.servers }

// QueueLen returns the number of requests waiting for a server.
func (r *Resource) QueueLen() int { return r.sem.QueueLen() }

func (r *Resource) account(delta int64) {
	now := r.k.now
	r.busyIntegral += Time(r.busy) * (now - r.lastChange)
	r.lastChange = now
	r.busy += delta
}

// Utilization returns mean busy fraction in [0,1] since the kernel started.
func (r *Resource) Utilization() float64 {
	total := Time(r.servers) * r.k.now
	if total == 0 {
		return 0
	}
	integral := r.busyIntegral + Time(r.busy)*(r.k.now-r.lastChange)
	return float64(integral) / float64(total)
}

// Use occupies one server for service duration d, queueing first if all
// servers are busy.
func (r *Resource) Use(p *Proc, d Time) {
	r.sem.Acquire(p, 1)
	r.account(+1)
	p.Sleep(d)
	r.Release()
}

// Acquire grabs a server without a fixed service time; pair with Release.
func (r *Resource) Acquire(p *Proc) {
	r.sem.Acquire(p, 1)
	r.account(+1)
}

// Release returns a server acquired with Acquire.
func (r *Resource) Release() {
	r.account(-1)
	r.sem.Release(1)
}

// Job is one request a callback chain makes of a Resource (see UseCall).
// Its owner keeps it alive, and may reuse it once Done has run.
type Job struct {
	// Done runs as Done(Arg) when service ends, after the server is
	// released. It runs in kernel context and must not block.
	Done func(any)
	Arg  any

	r *Resource
	d Time
	p *Proc // parked in Wait, resumed instead of Done
}

// UseCall is Use for callback models: it occupies one server for d on
// behalf of j, queueing first if all servers are busy, and runs j.Done when
// service ends. A queued job is granted in the slot where a queued Use
// would be resumed, and its service ends in the slot of Use's Sleep.
func (r *Resource) UseCall(j *Job, d Time) {
	j.r, j.d = r, d
	if r.sem.acquireCall(1, jobGranted, j) {
		r.serve(j)
	}
}

func jobGranted(a any) {
	j := a.(*Job)
	j.r.serve(j)
}

// serve starts j's service: the end resumes the process waiting on j, or
// runs jobServed.
func (r *Resource) serve(j *Job) {
	r.account(+1)
	if j.p != nil {
		j.p.resumeAt(r.k.now + j.d)
		return
	}
	r.k.AfterCall(j.d, jobServed, j)
}

func jobServed(a any) {
	j := a.(*Job)
	j.r.Release()
	j.Done(j.Arg)
}

// Wait parks p until j is served, for a process that hands the start of a
// request to a callback chain but runs its continuation itself. The end of
// service resumes p in the slot of Use's Sleep, p releases the server, and
// Done is not called. Wait must be called before j reaches a server.
func (j *Job) Wait(p *Proc) {
	j.p = p
	p.park()
	j.p = nil
	j.r.Release()
}
