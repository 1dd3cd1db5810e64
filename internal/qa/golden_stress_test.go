package qa

import (
	"fmt"
	"testing"

	"repro/internal/osd"
	"repro/internal/sim"
	"repro/internal/store"
)

// stressPin is the part of a stress Result that goldenStress pins.
type stressPin struct {
	Writes, Reads, ReadVerified, ObjectsWritten, Recovered int
	SimulatedTime                                          sim.Time
}

// goldenStress pins RunStress and RunStressWithOutage at afqa's default
// shape (DefaultStress, outage on osd.1), per profile, backend and seed,
// as goldenChaos pins the chaos runs. Update an entry only with a change
// that means to alter the stress runs, and say so in its description.
var goldenStress = map[string]stressPin{
	"community/filestore/stress/seed1":   {449, 271, 205, 96, 0, 410733353},
	"community/filestore/stress/seed2":   {396, 324, 257, 95, 0, 416293441},
	"community/filestore/outage/seed1":   {891, 549, 420, 191, 37, 5074681714},
	"community/filestore/outage/seed2":   {815, 625, 509, 190, 37, 5148084292},
	"community/directstore/stress/seed1": {449, 271, 205, 96, 0, 415318286},
	"community/directstore/stress/seed2": {396, 324, 257, 95, 0, 416268968},
	"community/directstore/outage/seed1": {891, 549, 420, 191, 37, 5094931193},
	"community/directstore/outage/seed2": {815, 625, 509, 190, 37, 5150260977},
	"afceph/filestore/stress/seed1":      {449, 271, 205, 96, 0, 157544229},
	"afceph/filestore/stress/seed2":      {396, 324, 257, 95, 0, 175021312},
	"afceph/filestore/outage/seed1":      {891, 549, 420, 191, 37, 4632326864},
	"afceph/filestore/outage/seed2":      {815, 625, 509, 190, 37, 4688721487},
	"afceph/directstore/stress/seed1":    {449, 271, 205, 96, 0, 163156391},
	"afceph/directstore/stress/seed2":    {396, 324, 257, 95, 0, 178100154},
	"afceph/directstore/outage/seed1":    {891, 549, 420, 191, 37, 4638722153},
	"afceph/directstore/outage/seed2":    {815, 625, 509, 190, 37, 4698107063},
}

// TestStressRunsPinned: each pinned stress configuration still produces
// its recorded counters and simulated clock, with no invariant violated.
func TestStressRunsPinned(t *testing.T) {
	type job struct {
		name   string
		cfg    StressConfig
		outage bool
	}
	var jobs []job
	for _, profile := range []string{"community", "afceph"} {
		tuning, err := osd.ProfileByName(profile)
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range []string{store.BackendFileStore, store.BackendDirectStore} {
			for _, outage := range []bool{false, true} {
				for seed := uint64(1); seed <= 2; seed++ {
					cfg := DefaultStress(tuning.Config())
					cfg.Cluster.OSD.Backend = backend
					cfg.Cluster.Seed = seed
					run := "stress"
					if outage {
						run = "outage"
					}
					jobs = append(jobs, job{fmt.Sprintf("%s/%s/%s/seed%d", profile, backend, run, seed), cfg, outage})
				}
			}
		}
	}
	out := make([]*Result, len(jobs))
	fns := make([]func(), len(jobs))
	for i := range jobs {
		i := i
		fns[i] = func() {
			if jobs[i].outage {
				out[i] = RunStressWithOutage(jobs[i].cfg, 1)
			} else {
				out[i] = RunStress(jobs[i].cfg)
			}
		}
	}
	sim.RunParallel(0, fns)
	if len(goldenStress) != len(jobs) {
		t.Errorf("%d pins for %d runs", len(goldenStress), len(jobs))
	}
	for i, res := range out {
		name := jobs[i].name
		for _, v := range res.Violations {
			t.Errorf("%s: violation: %s", name, v)
		}
		got := stressPin{res.Writes, res.Reads, res.ReadVerified, res.ObjectsWritten, res.Recovered, res.SimulatedTime}
		if want, ok := goldenStress[name]; !ok || got != want {
			t.Errorf("%s: got %+v, want pinned %+v", name, got, want)
		}
	}
}
