package qa

import "repro/internal/sim"

// sweep executes run once per config on the bounded worker pool and
// returns the results in config order. Each run owns its whole world —
// cluster, kernel, rngs, fault schedule — and writes only its index-owned
// result slot, so a sweep is bit-identical for every worker count:
// workers 1 and 32 produce the same results, which the differential
// determinism tests enforce. workers <= 0 means sim.DefaultWorkers().
func sweep[C, R any](cfgs []C, workers int, run func(C) R) []R {
	out := make([]R, len(cfgs))
	jobs := make([]func(), len(cfgs))
	for i := range jobs {
		i := i
		jobs[i] = func() { out[i] = run(cfgs[i]) }
	}
	sim.RunParallel(workers, jobs)
	return out
}

// RunChaosSweep runs RunChaos once per config through sweep.
func RunChaosSweep(cfgs []ChaosConfig, workers int) []*ChaosResult { //afvet:allow unused golden_test.go and differential_test.go sweep chaos seeds through it
	return sweep(cfgs, workers, RunChaos)
}

// RunStressSweep runs RunStress once per config through sweep.
func RunStressSweep(cfgs []StressConfig, workers int) []*Result { //afvet:allow unused differential_test.go sweeps stress seeds through it
	return sweep(cfgs, workers, RunStress)
}
