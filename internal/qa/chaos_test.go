package qa

import "testing"

// TestChaosSingleSeed is the fast smoke test: one full thrasher run with
// crashes, a partition and disk faults must lose no acked write and end
// with a clean scrub.
func TestChaosSingleSeed(t *testing.T) {
	cfg := DefaultChaos()
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
	if res.ScrubFindings == 0 {
		t.Error("background scrub found nothing despite injected rot")
	}
	t.Logf("writes=%d reads=%d verified=%d retries=%d replays=%d recovered=%d repaired=%d dropped=%d rot=%d/%d/%d rr=%d eio=%d scrub=%d/%d simT=%v fp=%#x",
		res.Writes, res.Reads, res.ReadVerified, res.Retries, res.JournalReplays,
		res.Recovered, res.Repaired, res.NetDropped,
		res.BitRots, res.RotDetected, res.RotRepaired, res.ReadRepairs, res.EIOs,
		res.ScrubFindings, res.ScrubRepairs, res.SimulatedTime, res.Fingerprint)
}

// TestChaosSeedSweep runs the thrasher across many seeds; the zero-lost-
// acked-writes invariant must hold for every schedule.
func TestChaosSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is long")
	}
	for seed := uint64(1); seed <= 20; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			cfg := DefaultChaos()
			cfg.Cluster.Seed = seed
			res := RunChaos(cfg)
			for _, v := range res.Violations {
				t.Errorf("seed %d: %s", seed, v)
			}
			if res.ReadVerified == 0 {
				t.Errorf("seed %d: readback verified nothing", seed)
			}
		})
	}
}

// TestChaosDeterminism: identical seed and schedule must produce a
// bit-for-bit identical run (fingerprint covers counters, per-OSD metrics
// and every final object version); a different seed must not.
func TestChaosDeterminism(t *testing.T) {
	cfg := DefaultChaos()
	a := RunChaos(cfg)
	b := RunChaos(cfg)
	if len(a.Violations)+len(b.Violations) > 0 {
		t.Fatalf("violations: %v / %v", a.Violations, b.Violations)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Errorf("same seed diverged: %#x vs %#x", a.Fingerprint, b.Fingerprint)
	}
	if a.SimulatedTime != b.SimulatedTime || a.Retries != b.Retries || a.Recovered != b.Recovered {
		t.Errorf("same seed stats diverged: %+v vs %+v", a, b)
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
