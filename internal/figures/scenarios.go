package figures

import (
	"fmt"

	"repro/internal/scenario"
)

// Scenarios renders the multi-tenant scenario engine's canonical runs as
// one figure: the steady baseline, noisy-neighbor and flash-crowd each with
// admission control off and on, and failover-under-load. The off/on pairs
// are the headline: the same scenario, same seed, differing only in whether
// the per-tenant token buckets are enforced, so the steady tenant's p99
// delta is attributable to admission control alone.
func Scenarios(opt Options) Report {
	type pointSpec struct {
		canon   string
		disable bool
		label   string
	}
	points := []pointSpec{
		{"steady-multi-tenant", false, "steady"},
		{"noisy-neighbor", true, "noisy-adm-off"},
		{"noisy-neighbor", false, "noisy-adm-on"},
		{"flash-crowd", true, "flash-adm-off"},
		{"flash-crowd", false, "flash-adm-on"},
		{"failover-under-load", false, "failover"},
	}
	results := parallelPoints(opt.Workers, len(points), func(i int) *scenario.Result {
		sc, err := scenario.Parse([]byte(scenario.Canon(points[i].canon)))
		if err != nil {
			panic("figures: canonical scenario " + points[i].canon + ": " + err.Error())
		}
		res, err := scenario.Run(sc, scenario.Options{Scale: opt.Scale, DisableAdmission: points[i].disable})
		if err != nil {
			panic("figures: scenario " + points[i].canon + ": " + err.Error())
		}
		noteSimWork(SimWork{Nanos: int64(res.SimulatedTime), Events: res.Events, Resumes: res.Resumes})
		return res
	})

	rep := Report{
		Title:  "Scenarios: multi-tenant SLO classes and token-bucket admission control",
		Header: []string{"scenario", "tenant", "class", "offered", "accepted", "rejected", "iops", "p50(ms)", "p99(ms)", "jain"},
	}
	for i, res := range results {
		label := points[i].label
		for _, tr := range res.Tenants {
			rep.Rows = append(rep.Rows, []string{
				label, tr.Name, tr.Class,
				fmt.Sprintf("%d", tr.Offered), fmt.Sprintf("%d", tr.Accepted), fmt.Sprintf("%d", tr.Rejected),
				f0(tr.IOPS), f2(tr.Lat.P50), f2(tr.Lat.P99), "",
			})
		}
		rep.Rows = append(rep.Rows, []string{
			label, "TOTAL", "",
			fmt.Sprintf("%d", res.Offered), fmt.Sprintf("%d", res.Accepted), fmt.Sprintf("%d", res.Rejected),
			f0(res.IOPS), f2(res.Lat.P50), f2(res.Lat.P99), fmt.Sprintf("%.3f", res.Fairness),
		})
	}

	steadyP99 := func(res *scenario.Result) float64 {
		for _, tr := range res.Tenants {
			if tr.Name == "steady-gold" {
				return tr.Lat.P99
			}
		}
		return 0
	}
	for _, pair := range []struct {
		name    string
		off, on int
	}{
		{"noisy-neighbor", 1, 2},
		{"flash-crowd", 3, 4},
	} {
		off, on := steadyP99(results[pair.off]), steadyP99(results[pair.on])
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"%s: admission control moves steady-gold p99 %.2fms -> %.2fms (%d ops rejected, fairness %.3f -> %.3f)",
			pair.name, off, on, results[pair.on].Rejected,
			results[pair.off].Fairness, results[pair.on].Fairness))
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"failover-under-load: %d ops all accepted through an OSD crash and recovery (p99 %.2fms)",
		results[5].Accepted, results[5].Lat.P99))
	return rep
}
