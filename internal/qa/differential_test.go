package qa

import (
	"runtime"
	"testing"

	"repro/internal/osd"
	"repro/internal/scenario"
	"repro/internal/store"
)

// The qa half of the differential determinism harness: the thrasher sweep
// re-run under deliberately different host parallelism — many pool workers
// on the full runtime vs one worker pinned to GOMAXPROCS=1 — must be
// bit-for-bit indistinguishable. The fingerprint covers every counter,
// per-OSD metric and final object version, so one uint64 comparison per
// seed closes the loop.

// sweepConfigs builds the differential sweep: seeds 1..n on one backend.
func sweepConfigs(backend string, n int) []ChaosConfig {
	cfgs := make([]ChaosConfig, n)
	for i := range cfgs {
		cfg := DefaultChaos()
		cfg.Cluster.OSD.Backend = backend
		cfg.Cluster.Seed = uint64(i + 1)
		cfgs[i] = cfg
	}
	return cfgs
}

// TestChaosSweepDifferential runs the 10-seed chaos sweep twice per store
// backend — 8 pool workers vs 1 worker under GOMAXPROCS=1 — and requires
// identical fingerprints, counters and simulated clocks, with zero
// invariant violations either way.
func TestChaosSweepDifferential(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 2
	}
	for _, backend := range []string{store.BackendFileStore, store.BackendDirectStore} {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			cfgs := sweepConfigs(backend, seeds)
			wide := RunChaosSweep(cfgs, 8)
			prev := runtime.GOMAXPROCS(1)
			narrow := RunChaosSweep(cfgs, 1)
			runtime.GOMAXPROCS(prev)
			for i := range cfgs {
				w, n := wide[i], narrow[i]
				for _, v := range w.Violations {
					t.Errorf("seed %d: violation: %s", cfgs[i].Cluster.Seed, v)
				}
				if w.Fingerprint != n.Fingerprint {
					t.Errorf("seed %d: fingerprint diverged across executives: %#x (8 workers) vs %#x (serial)",
						cfgs[i].Cluster.Seed, w.Fingerprint, n.Fingerprint)
				}
				if w.SimulatedTime != n.SimulatedTime || w.Writes != n.Writes ||
					w.Reads != n.Reads || w.Retries != n.Retries ||
					w.Recovered != n.Recovered || w.ReadVerified != n.ReadVerified {
					t.Errorf("seed %d: run counters diverged across executives: %+v vs %+v",
						cfgs[i].Cluster.Seed, w, n)
				}
				if w.ReadVerified == 0 {
					t.Errorf("seed %d: readback verified nothing", cfgs[i].Cluster.Seed)
				}
			}
		})
	}
}

// TestScenarioDifferential extends the differential harness to the
// multi-tenant scenario engine: every canonical scenario run normally and
// re-run with the whole runtime pinned to GOMAXPROCS=1 must produce the
// same fingerprint (all counters, latency quantiles, admission decisions
// and the simulated clock).
func TestScenarioDifferential(t *testing.T) {
	names := scenario.CanonNames
	if testing.Short() {
		names = names[:2]
	}
	run := func(name string) uint64 {
		sc, err := scenario.Parse([]byte(scenario.Canon(name)))
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		res, err := scenario.Run(sc, scenario.Options{Scale: 0.12})
		if err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		return res.Fingerprint()
	}
	for _, name := range names {
		wide := run(name)
		prev := runtime.GOMAXPROCS(1)
		narrow := run(name)
		runtime.GOMAXPROCS(prev)
		if wide != narrow {
			t.Errorf("%s: fingerprint diverged under GOMAXPROCS=1: %#x vs %#x", name, wide, narrow)
		}
	}
}

// TestStressSweepDifferential covers the non-chaotic randomized stress runs
// the same way; these have no fingerprint, so the comparison is over every
// observable counter and the simulated clock.
func TestStressSweepDifferential(t *testing.T) {
	seeds := 4
	if testing.Short() {
		seeds = 2
	}
	for _, backend := range []string{store.BackendFileStore, store.BackendDirectStore} {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			cfgs := make([]StressConfig, seeds)
			for i := range cfgs {
				cfg := DefaultStress(osd.AFCeph().Config())
				cfg.Cluster.OSD.Backend = backend
				cfg.Cluster.Seed = uint64(i + 1)
				cfgs[i] = cfg
			}
			wide := RunStressSweep(cfgs, 8)
			narrow := RunStressSweep(cfgs, 1)
			for i := range cfgs {
				w, n := wide[i], narrow[i]
				for _, v := range w.Violations {
					t.Errorf("seed %d: violation: %s", cfgs[i].Cluster.Seed, v)
				}
				if w.Writes != n.Writes || w.Reads != n.Reads ||
					w.ReadVerified != n.ReadVerified || w.ObjectsWritten != n.ObjectsWritten ||
					w.SimulatedTime != n.SimulatedTime {
					t.Errorf("seed %d: stress counters diverged across executives: %+v vs %+v",
						cfgs[i].Cluster.Seed, w, n)
				}
			}
		})
	}
}
