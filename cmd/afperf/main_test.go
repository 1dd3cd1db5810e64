package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"

	"repro/internal/sim"
)

// TestSmokeAllWorkloads runs every workload in process for 50 ms of
// virtual time on smaller images, traced, and requires the correctness
// gate to pass and the emitted metric names to match BENCHMARK.json.
func TestSmokeAllWorkloads(t *testing.T) {
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var wantWorkloads []string
	for _, w := range bench.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
	}
	if got := specNames(); !slices.Equal(got, wantWorkloads) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", got, wantWorkloads)
	}
	names := func(defs []struct{ Name, Unit string }) map[string]string {
		m := map[string]string{}
		for _, d := range defs {
			m[d.Name] = d.Unit
		}
		return m
	}
	wantE2E, wantLayer := names(bench.EndToEnd), names(bench.PerLayer)

	drivers := map[string]float64{}
	for _, d := range layerDrivers {
		drivers[d.name] = 1
	}
	validName := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	sameNames := func(what string, got map[string]metric, want map[string]string) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", what, len(got), len(want))
		}
		for name, m := range got {
			if !validName.MatchString(name) {
				t.Errorf("%s: metric name %q", what, name)
			}
			if unit, ok := want[name]; !ok || unit != m.Unit {
				t.Errorf("%s: metric %s [%s] not in BENCHMARK.json (unit there %q)", what, name, m.Unit, unit)
			}
		}
	}

	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			s.ramp, s.runtime = 10*sim.Millisecond, 40*sim.Millisecond
			s.imageSize = min(s.imageSize, 64<<20)
			if s.failover {
				// Recovery lands in the drain, after detection (grace 100 ms).
				s.crashAt, s.recoverAt = 10*sim.Millisecond, 300*sim.Millisecond
			}
			r, err := runRep(s, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			if problems := check(s, []repResult{r}); len(problems) != 0 {
				t.Fatalf("correctness gate: %v", problems)
			}
			if r.HostNS == nil || r.Ops == 0 {
				t.Fatalf("traced rep has host profile %v and %d ops", r.HostNS, r.Ops)
			}
			sameNames("end_to_end", endToEndMetrics([]repResult{r}), wantE2E)
			sameNames("per_layer", perLayerMetrics([]repResult{r}, r, drivers), wantLayer)
		})
	}
}

func TestCheckRejectsPerturbedFingerprint(t *testing.T) {
	rep := repResult{
		Ops: 100, Attempted: 120, Retries: 3, DownsDetected: 1,
		Print: fingerprint{Ops: 90, FinalNS: 5e9, Events: 1e6, NetBytes: 1 << 30, P50Bits: 1, P99Bits: 2},
	}
	s, _ := specByName("failover")
	reps := []repResult{rep, rep, rep, rep}
	if problems := check(s, reps); len(problems) != 0 {
		t.Fatalf("identical reps rejected: %v", problems)
	}
	for _, perturb := range []func(*repResult){
		func(r *repResult) { r.Print.Events++ },
		func(r *repResult) { r.Print.P99Bits ^= 1 },
		func(r *repResult) { r.Failed = 1 },
		func(r *repResult) { r.DownsDetected = 2 },
		func(r *repResult) { r.Retries = 0 },
		func(r *repResult) { r.ScrubFindings = []string{"rbd.vm0.0 pg 7: missing replica on osd.1"} },
	} {
		bad := slices.Clone(reps)
		perturb(&bad[3])
		if problems := check(s, bad); len(problems) != 1 {
			t.Errorf("perturbed rep %+v: got problems %v, want exactly one", bad[3], problems)
		}
	}
}
