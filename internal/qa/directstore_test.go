package qa

import (
	"testing"

	"repro/internal/osd"
	"repro/internal/store"
)

// The directstore backend must pass the same QA battery as the journal
// backend: same invariants, same thrasher, same determinism guarantee.
// Nothing in this file is directstore-specific beyond the Backend field —
// that is the point of the store seam.

func TestStressDirectStore(t *testing.T) {
	cfg := DefaultStress(osd.AFCeph().Config())
	cfg.Backend = store.BackendDirectStore
	res := RunStress(cfg)
	t.Logf("directstore: writes=%d reads=%d verified=%d objects=%d simtime=%v",
		res.Writes, res.Reads, res.ReadVerified, res.ObjectsWritten, res.SimulatedTime)
	if res.Failed() {
		for _, v := range res.Violations {
			t.Error(v)
		}
	}
	if res.ReadVerified == 0 {
		t.Fatal("no read verified against the model; stress has no teeth")
	}
}

// Large blocks cross the WAL threshold, so this exercises the direct
// (data-before-metadata) write path; small blocks exercise the deferred
// WAL path; 64K sits exactly on the default threshold boundary.
func TestStressDirectStoreMixedSizes(t *testing.T) {
	cfg := DefaultStress(osd.AFCeph().Config())
	cfg.Backend = store.BackendDirectStore
	cfg.BlockSizes = []int64{4096, 65536, 262144}
	res := RunStress(cfg)
	if res.Failed() {
		for _, v := range res.Violations {
			t.Error(v)
		}
	}
}

func TestStressDirectStoreOutageCycle(t *testing.T) {
	cfg := DefaultStress(osd.AFCeph().Config())
	cfg.Backend = store.BackendDirectStore
	cfg.OpsPerClient = 60
	res := RunStressWithOutage(cfg, 1)
	if res.Failed() {
		for _, v := range res.Violations {
			t.Error(v)
		}
	}
	if res.Recovered == 0 {
		t.Fatal("outage cycle copied nothing; vacuous")
	}
}

// TestChaosDirectStore: the thrasher's hard invariant — zero lost acked
// writes through silent crashes, partitions and disk faults — must hold
// with WAL replay standing in for journal replay.
func TestChaosDirectStore(t *testing.T) {
	cfg := DefaultChaos()
	cfg.Backend = store.BackendDirectStore
	res := RunChaos(cfg)
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.Crashes != cfg.CrashCycles {
		t.Errorf("crashes = %d, want %d", res.Crashes, cfg.CrashCycles)
	}
	if res.ReadVerified == 0 {
		t.Error("readback verified nothing")
	}
	t.Logf("writes=%d reads=%d verified=%d retries=%d replays=%d recovered=%d fp=%#x",
		res.Writes, res.Reads, res.ReadVerified, res.Retries, res.JournalReplays,
		res.Recovered, res.Fingerprint)
}

// TestChaosDirectStoreSeedSweep: zero-lost-acked-writes across 20 fault
// schedules (the acceptance sweep for the backend).
func TestChaosDirectStoreSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is long")
	}
	for seed := uint64(1); seed <= 20; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			cfg := DefaultChaos()
			cfg.Backend = store.BackendDirectStore
			cfg.Seed = seed
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

// TestChaosDirectStoreDeterminism: the new backend must be as
// deterministic as the old one.
func TestChaosDirectStoreDeterminism(t *testing.T) {
	cfg := DefaultChaos()
	cfg.Backend = store.BackendDirectStore
	a := RunChaos(cfg)
	b := RunChaos(cfg)
	if a.Failed() || b.Failed() {
		t.Fatalf("violations: %v / %v", a.Violations, b.Violations)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Errorf("same seed diverged: %#x vs %#x", a.Fingerprint, b.Fingerprint)
	}
}
