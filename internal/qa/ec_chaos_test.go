package qa

import (
	"testing"

	"repro/internal/osd"
	"repro/internal/sim"
)

// ecChaos is the thrasher shape for an RS(4,2) pool: 6 OSDs over 3 hosts
// (width 6 exercises the CRUSH relaxed-host fallback), crash cycles allowed
// to overlap two deep — the pool's full m=2 failure budget — plus bit rot
// and background scrub, so reconstruct-reads, shard recovery and EC repair
// all fire in one run.
func ecChaos() ChaosConfig {
	return ChaosConfig{
		OSD:          osd.AFCeph().Config(),
		Clients:      4,
		OpsPerClient: 120,
		Pacing:       20 * sim.Millisecond,
		ImageSize:    64 << 20,
		BlockSizes:   []int64{4096, 8192, 32768},
		ReadFraction: 0.3,
		Nodes:        3,
		OSDsPerNode:  2,
		CrashCycles:  4,
		Partition:    true,
		DiskFaults:   true,
		BitRot:       3,
		Scrub:        true,
		Pool:         "ec4+2",
		MaxDown:      2,
		Seed:         1,
	}
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
	if a.Failed() || b.Failed() {
		t.Fatalf("violations: %v / %v", a.Violations, b.Violations)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Errorf("same seed diverged: %#x vs %#x", a.Fingerprint, b.Fingerprint)
	}
	cfg.Seed = 2
	c := RunChaos(cfg)
	if c.Failed() {
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
				cfg.Backend = backend
				cfg.Seed = seed
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
