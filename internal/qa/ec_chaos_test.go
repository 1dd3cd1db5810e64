package qa

import "testing"

// ecChaos is the thrasher shape for an RS(4,2) pool: 6 OSDs over 3 hosts
// (width 6 exercises the CRUSH relaxed-host fallback), crash cycles allowed
// to overlap two deep — the pool's full m=2 failure budget — plus bit rot
// and background scrub, so reconstruct-reads, shard recovery and EC repair
// all fire in one run.
func ecChaos() ChaosConfig {
	cfg := DefaultChaos()
	cfg.Cluster.OSDNodes = 3
	cfg.Cluster.Pool = "ec4+2"
	cfg.CrashCycles = 4
	cfg.MaxDown = 2
	return cfg
}

// TestECChaosSingleSeed: one full thrasher run against RS(4,2) with up to
// two concurrent OSD failures must lose no acked write and end with a clean
// scrub — the EC pool's equivalent of TestChaosSingleSeed.
func TestECChaosSingleSeed(t *testing.T) {
	cfg := ecChaos()
	res := RunChaos(cfg)
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.Crashes != cfg.CrashCycles {
		t.Errorf("crashes = %d, want %d", res.Crashes, cfg.CrashCycles)
	}
	if res.DownsDetected != uint64(cfg.CrashCycles) {
		t.Errorf("heartbeat detections = %d, want %d", res.DownsDetected, cfg.CrashCycles)
	}
	if res.Retries == 0 {
		t.Error("expected client retries under chaos, got none")
	}
	if res.ReadVerified == 0 {
		t.Error("readback verified nothing")
	}
	if res.BitRots != cfg.BitRot {
		t.Errorf("bit-rot injections = %d, want %d", res.BitRots, cfg.BitRot)
	}
	if res.RotDetected+res.RotVacated != res.BitRots || res.RotRepaired+res.RotVacated != res.BitRots {
		t.Errorf("self-healing incomplete: %d injected, %d detected, %d repaired, %d vacated",
			res.BitRots, res.RotDetected, res.RotRepaired, res.RotVacated)
	}
	t.Logf("writes=%d reads=%d verified=%d retries=%d replays=%d recovered=%d repaired=%d rot=%d/%d/%d rr=%d eio=%d simT=%v fp=%#x",
		res.Writes, res.Reads, res.ReadVerified, res.Retries, res.JournalReplays,
		res.Recovered, res.Repaired,
		res.BitRots, res.RotDetected, res.RotRepaired, res.ReadRepairs, res.EIOs,
		res.SimulatedTime, res.Fingerprint)
}

// TestECChaosDeterminism: an EC chaos run must be bit-for-bit reproducible
// per seed, and distinguishable across seeds.
func TestECChaosDeterminism(t *testing.T) {
	cfg := ecChaos()
	a := RunChaos(cfg)
	b := RunChaos(cfg)
	if len(a.Violations)+len(b.Violations) > 0 {
		t.Fatalf("violations: %v / %v", a.Violations, b.Violations)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Errorf("same seed diverged: %#x vs %#x", a.Fingerprint, b.Fingerprint)
	}
	cfg.Cluster.Seed = 2
	c := RunChaos(cfg)
	if len(c.Violations) > 0 {
		t.Fatalf("seed 2 violations: %v", c.Violations)
	}
	if c.Fingerprint == a.Fingerprint {
		t.Errorf("different seeds produced identical fingerprint %#x", a.Fingerprint)
	}
}

// TestECChaosSeedSweep: 20 seeds x both store backends against RS(4,2)
// with overlapping failures — zero acked writes lost on every schedule.
func TestECChaosSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is long")
	}
	for _, backend := range []string{"filestore", "directstore"} {
		backend := backend
		for seed := uint64(1); seed <= 20; seed++ {
			seed := seed
			t.Run(backend, func(t *testing.T) {
				t.Parallel()
				cfg := ecChaos()
				cfg.Cluster.OSD.Backend = backend
				cfg.Cluster.Seed = seed
				res := RunChaos(cfg)
				for _, v := range res.Violations {
					t.Errorf("%s seed %d: %s", backend, seed, v)
				}
				if res.ReadVerified == 0 {
					t.Errorf("%s seed %d: readback verified nothing", backend, seed)
				}
			})
		}
	}
}
