package figures

import "repro/internal/sim"

// parallelPoints runs n independent figure points on the bounded worker
// pool and returns their results in index order. Every multi-point figure
// is a fan-out of mutually independent simulations — each point builds its
// own cluster and kernel, shares nothing with its siblings (the one piece
// of cross-point state, the simulated-time meter, is an atomic counter) —
// so the gather is a pure index-ordered collection and the assembled
// report is bit-identical for any worker count, including GOMAXPROCS=1:
// parallelism changes wall-clock time, never the result.
func parallelPoints[T any](workers, n int, point func(i int) T) []T {
	out := make([]T, n)
	jobs := make([]func(), n)
	for i := range jobs {
		i := i
		jobs[i] = func() { out[i] = point(i) }
	}
	sim.RunParallel(workers, jobs)
	return out
}
