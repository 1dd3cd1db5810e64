package figures

import (
	"sync/atomic" //afvet:allow determinism commutative work meter only: sums of per-point kernel counters, never read by simulated state

	"repro/internal/sim"
)

// SimWork is the simulated work of a set of figure points: virtual
// nanoseconds simulated, kernel events dispatched and process resumes.
// The benchmarks divide Nanos by wall time to report the simulator's
// time-compression ratio (sim-wall-x), and gate Events and Resumes
// exactly: they are simulator outputs, so a change that adds simulated
// work fails on any host.
type SimWork struct {
	Nanos   int64
	Events  uint64
	Resumes uint64
}

// simNanos, simEvents and simResumes accumulate SimWork since the last
// TakeSimWork. Points may finish concurrently; the sums commute.
var (
	simNanos   atomic.Int64
	simEvents  atomic.Uint64
	simResumes atomic.Uint64
)

// noteSim credits a finished point's kernel to the accumulator.
func noteSim(k *sim.Kernel) {
	noteSimWork(SimWork{Nanos: int64(k.Now()), Events: k.Dispatched(), Resumes: k.Resumes()})
}

// noteSimWork credits an externally run simulation (a scenario engine point
// reports its kernel's counters rather than the kernel itself).
func noteSimWork(w SimWork) {
	simNanos.Add(w.Nanos)
	simEvents.Add(w.Events)
	simResumes.Add(w.Resumes)
}

// TakeSimWork returns the accumulated simulated work and resets the
// accumulator.
func TakeSimWork() SimWork { //afvet:allow unused bench_test.go reports each benchmark's sim-wall-x through it
	return SimWork{Nanos: simNanos.Swap(0), Events: simEvents.Swap(0), Resumes: simResumes.Swap(0)}
}
