package qa

import "repro/internal/sim"

// RunChaosSweep executes one thrasher run per config on the bounded worker
// pool and returns the results in config order. Each run owns its whole
// world — cluster, kernel, rngs, fault schedule — and writes only its
// index-owned result slot, so the sweep is bit-identical for every worker
// count: RunChaosSweep(cfgs, 1) and RunChaosSweep(cfgs, 32) produce the
// same fingerprints, which the differential determinism tests enforce.
// workers <= 0 means sim.DefaultWorkers().
func RunChaosSweep(cfgs []ChaosConfig, workers int) []*ChaosResult { //afvet:allow unused golden_test.go and differential_test.go sweep chaos seeds through it
	out := make([]*ChaosResult, len(cfgs))
	jobs := make([]func(), len(cfgs))
	for i := range jobs {
		i := i
		jobs[i] = func() { out[i] = RunChaos(cfgs[i]) }
	}
	sim.RunParallel(workers, jobs)
	return out
}

// RunStressSweep is RunChaosSweep's analogue for the plain randomized
// stress runs; same ownership discipline, same determinism contract.
func RunStressSweep(cfgs []StressConfig, workers int) []*Result { //afvet:allow unused differential_test.go sweeps stress seeds through it
	out := make([]*Result, len(cfgs))
	jobs := make([]func(), len(cfgs))
	for i := range jobs {
		i := i
		jobs[i] = func() { out[i] = RunStress(cfgs[i]) }
	}
	sim.RunParallel(workers, jobs)
	return out
}
