package qa

import (
	"testing"

	"repro/internal/store"
)

// goldenChaos pins RunChaos fingerprints across commits, as goldenFigures
// pins the figure hashes. TestChaosDeterminism only compares a run with
// itself, so a change to the cluster qa builds would pass it; this table
// fails instead. Update a fingerprint only with a change that means to
// alter the chaos run, and say so in its description.
var goldenChaos = []struct {
	name string
	cfg  func() ChaosConfig
	want uint64
}{
	{"filestore/seed1", chaosAt(store.BackendFileStore, 1), 0xcc2225593f62d91e},
	{"filestore/seed2", chaosAt(store.BackendFileStore, 2), 0x41608e4c3a1b5e06},
	{"filestore/seed3", chaosAt(store.BackendFileStore, 3), 0x65e82ea486f680a9},
	{"directstore/seed1", chaosAt(store.BackendDirectStore, 1), 0xc74fc57c507c54ca},
	{"directstore/seed2", chaosAt(store.BackendDirectStore, 2), 0x6763263091fd8b16},
	{"directstore/seed3", chaosAt(store.BackendDirectStore, 3), 0xbbc7f2318727d41b},
	{"ec4+2/seed1", ecChaos, 0xd6740b6fa674811a},
}

// chaosAt is DefaultChaos on one backend and seed.
func chaosAt(backend string, seed uint64) func() ChaosConfig {
	return func() ChaosConfig {
		cfg := DefaultChaos()
		cfg.Cluster.OSD.Backend = backend
		cfg.Cluster.Seed = seed
		return cfg
	}
}

// TestChaosFingerprintsPinned: each pinned chaos configuration still
// produces its recorded fingerprint, with no invariant violated.
func TestChaosFingerprintsPinned(t *testing.T) {
	cfgs := make([]ChaosConfig, len(goldenChaos))
	for i, g := range goldenChaos {
		cfgs[i] = g.cfg()
	}
	for i, res := range RunChaosSweep(cfgs, 0) {
		g := goldenChaos[i]
		for _, v := range res.Violations {
			t.Errorf("%s: violation: %s", g.name, v)
		}
		if res.Fingerprint != g.want {
			t.Errorf("%s: fingerprint %#x, want pinned %#x", g.name, res.Fingerprint, g.want)
		}
	}
}
