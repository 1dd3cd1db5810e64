package qa

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/osd"
)

func runProfile(t *testing.T, name string, osdCfg osd.Config, seed uint64) {
	t.Helper()
	cfg := DefaultStress(osdCfg)
	cfg.Seed = seed
	res := RunStress(cfg)
	t.Logf("%s seed=%d: writes=%d reads=%d verified=%d objects=%d simtime=%v",
		name, seed, res.Writes, res.Reads, res.ReadVerified, res.ObjectsWritten, res.SimulatedTime)
	if res.Failed() {
		for _, v := range res.Violations {
			t.Error(v)
		}
	}
	if res.Writes == 0 || res.Reads == 0 {
		t.Fatal("degenerate workload")
	}
	if res.ReadVerified == 0 {
		t.Fatal("no read verified against the model; stress has no teeth")
	}
}

func TestStressCommunity(t *testing.T) {
	runProfile(t, "community", osd.CommunityConfig(), 1)
}

func TestStressAFCeph(t *testing.T) {
	runProfile(t, "afceph", osd.AFCeph().Config(), 1)
}

func TestStressAFCephOrderedAcks(t *testing.T) {
	cfg := osd.AFCeph().Config()
	cfg.OrderedAcks = true
	runProfile(t, "afceph+ordered", cfg, 1)
}

// TestStressEveryPartialProfile runs every optimization alone, and AFCeph
// with that one optimization flipped: semantics must hold for every
// ablation point, not just the two endpoints. Fields with no OSD effect
// (the host settings) are invisible to the OSD-only stress profile and are
// skipped.
func TestStressEveryPartialProfile(t *testing.T) {
	short := map[string]string{"PendingQueue": "pending", "CompletionWorker": "compworker"}
	stock := osd.Community().Config()
	fields := reflect.TypeOf(osd.Tuning{})
	for i := 0; i < fields.NumField(); i++ {
		var alone osd.Tuning
		reflect.ValueOf(&alone).Elem().Field(i).SetBool(true)
		if reflect.DeepEqual(alone.Config(), stock) {
			continue
		}
		name := short[fields.Field(i).Name]
		if name == "" {
			name = strings.ToLower(fields.Field(i).Name)
		}
		flipped := osd.AFCeph()
		f := reflect.ValueOf(&flipped).Elem().Field(i)
		f.SetBool(!f.Bool())
		flippedName := "all-but-" + name
		if f.Bool() {
			flippedName = "afceph+" + name
		}
		arms := []struct {
			name   string
			tuning osd.Tuning
		}{{name + "-only", alone}, {flippedName, flipped}}
		for _, arm := range arms {
			arm := arm
			t.Run(arm.name, func(t *testing.T) {
				runProfile(t, arm.name, arm.tuning.Config(), 2)
			})
		}
	}
}

// TestStressManySeeds runs shorter randomized workloads across seeds, the
// property-test style sweep.
func TestStressManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is slow")
	}
	for seed := uint64(10); seed < 18; seed++ {
		seed := seed
		t.Run(profileSeedName(seed), func(t *testing.T) {
			cfg := DefaultStress(osd.AFCeph().Config())
			cfg.Seed = seed
			cfg.Clients = 4
			cfg.OpsPerClient = 60
			res := RunStress(cfg)
			if res.Failed() {
				for _, v := range res.Violations {
					t.Error(v)
				}
			}
		})
	}
}

func profileSeedName(seed uint64) string {
	return "seed" + string(rune('0'+seed%10))
}

func TestStressTinyJournalBackpressure(t *testing.T) {
	// A deliberately tiny journal forces ring-full stalls mid-run; the
	// invariants must still hold (no lost ops, full trim afterwards).
	osdCfg := osd.AFCeph().Config()
	osdCfg.JournalSize = 1 << 20
	cfg := DefaultStress(osdCfg)
	cfg.BlockSizes = []int64{32768, 65536}
	cfg.ReadFraction = 0.1
	res := RunStress(cfg)
	if res.Failed() {
		for _, v := range res.Violations {
			t.Error(v)
		}
	}
}

// TestStressWithOutageCycle interleaves failure and recovery with
// randomized load: the full cycle must leave the cluster consistent.
func TestStressWithOutageCycle(t *testing.T) {
	cfg := DefaultStress(osd.AFCeph().Config())
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

func TestStressHDDThrottleProfile(t *testing.T) {
	// Community throttles with AFCeph speed elsewhere: heavy backpressure
	// through the 50-op filestore throttle must not deadlock.
	osdCfg := osd.AFCeph().Config()
	osdCfg.Throttles = osd.CommunityConfig().Throttles
	cfg := DefaultStress(osdCfg)
	res := RunStress(cfg)
	if res.Failed() {
		for _, v := range res.Violations {
			t.Error(v)
		}
	}
}
