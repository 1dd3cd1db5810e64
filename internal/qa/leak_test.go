package qa

import (
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/osd"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestCloseReleasesGoroutines checks that a finished simulation leaves no
// goroutine behind: after one fio run and one chaos seed on each backend,
// the goroutine count is back at its baseline.
func TestCloseReleasesGoroutines(t *testing.T) {
	for _, backend := range []string{store.BackendFileStore, store.BackendDirectStore} {
		t.Run(backend, func(t *testing.T) {
			base := runtime.NumGoroutine()

			p := Testbed(osd.AFCeph().Config())
			p.OSD.Backend = backend
			p.Seed = 7
			c := cluster.New(p)
			res := workload.VMFleet(c, 2, 64<<20, workload.Spec{
				Pattern:   workload.RandWrite,
				BlockSize: 4096,
				IODepth:   4,
				Runtime:   100 * sim.Millisecond,
				Seed:      7,
			}).Run(c.K)
			if res.Ops == 0 {
				t.Fatal("fio run completed no ops")
			}
			parked := runtime.NumGoroutine()
			c.Close()
			if n := runtime.NumGoroutine(); n > base || n >= parked {
				t.Fatalf("after fio: NumGoroutine = %d, %d before Close, baseline %d", n, parked, base)
			}

			cfg := DefaultChaos()
			cfg.Cluster.OSD.Backend = backend
			if r := RunChaos(cfg); len(r.Violations) > 0 {
				t.Fatalf("chaos violations: %v", r.Violations)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Fatalf("after chaos: NumGoroutine = %d, baseline %d", n, base)
			}
		})
	}
}
