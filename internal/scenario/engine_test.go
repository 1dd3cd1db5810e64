package scenario

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
)

func mustRun(t *testing.T, name string, opt Options) *Result {
	t.Helper()
	sc, err := Parse([]byte(Canon(name)))
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	res, err := Run(sc, opt)
	if err != nil {
		t.Fatalf("%s: run: %v", name, err)
	}
	return res
}

// TestScenarioInvariants checks the conservation laws on every canonical
// scenario: offered == accepted + rejected at every level, per-tenant and
// per-SLO-class counters telescope exactly to the cluster totals, and with
// admission on (and no failover retries) the OSD-side decision counters
// account for every offered op exactly once.
func TestScenarioInvariants(t *testing.T) {
	names := CanonNames
	if testing.Short() {
		names = names[:2]
	}
	for _, name := range names {
		res := mustRun(t, name, Options{Scale: 0.15})
		if res.Offered == 0 {
			t.Fatalf("%s: no offered load", name)
		}
		if res.Offered != res.Accepted+res.Rejected {
			t.Fatalf("%s: offered %d != accepted %d + rejected %d", name, res.Offered, res.Accepted, res.Rejected)
		}
		var tOff, tAcc, tRej, tMeas uint64
		for _, tr := range res.Tenants {
			if tr.Offered != tr.Accepted+tr.Rejected {
				t.Fatalf("%s: tenant %s: offered %d != accepted %d + rejected %d", name, tr.Name, tr.Offered, tr.Accepted, tr.Rejected)
			}
			tOff += tr.Offered
			tAcc += tr.Accepted
			tRej += tr.Rejected
			tMeas += tr.Measured
		}
		var cOff, cAcc, cRej, cMeas uint64
		for _, cr := range res.Classes {
			if cr.Offered != cr.Accepted+cr.Rejected {
				t.Fatalf("%s: class %s: offered %d != accepted %d + rejected %d", name, cr.Class, cr.Offered, cr.Accepted, cr.Rejected)
			}
			cOff += cr.Offered
			cAcc += cr.Accepted
			cRej += cr.Rejected
			cMeas += cr.Measured
		}
		// The telescoping check: tenant sums, class sums and cluster totals
		// are three independently incremented counter sets that must agree
		// exactly (mirrors TestBreakdownTelescopes for the perf breakdown).
		if tOff != res.Offered || cOff != res.Offered ||
			tAcc != res.Accepted || cAcc != res.Accepted ||
			tRej != res.Rejected || cRej != res.Rejected ||
			tMeas != res.Measured || cMeas != res.Measured {
			t.Fatalf("%s: breakdown does not telescope: tenants(%d/%d/%d/%d) classes(%d/%d/%d/%d) total(%d/%d/%d/%d)",
				name, tOff, tAcc, tRej, tMeas, cOff, cAcc, cRej, cMeas,
				res.Offered, res.Accepted, res.Rejected, res.Measured)
		}
		if res.Fairness < 0 || res.Fairness > 1+1e-12 {
			t.Fatalf("%s: fairness %g out of [0, 1]", name, res.Fairness)
		}
		sc, _ := Parse([]byte(Canon(name)))
		if res.AdmissionOn && sc.Failure == nil {
			// Every offered op reaches exactly one messenger-seam decision.
			if res.OSDAccepted+res.OSDRejected != res.Offered {
				t.Fatalf("%s: OSD decisions %d+%d != offered %d", name, res.OSDAccepted, res.OSDRejected, res.Offered)
			}
			if res.OSDRejected != res.Rejected {
				t.Fatalf("%s: OSD rejected %d != client rejected %d", name, res.OSDRejected, res.Rejected)
			}
		}
		if !res.AdmissionOn && (res.Rejected != 0 || res.OSDAccepted != 0 || res.OSDRejected != 0) {
			t.Fatalf("%s: admission off but rejections recorded (%d/%d/%d)", name, res.Rejected, res.OSDAccepted, res.OSDRejected)
		}
	}
}

// TestScenarioDeterministicPerfDump: the same scenario and seed produce a
// byte-identical perf dump and fingerprint across runs.
func TestScenarioDeterministicPerfDump(t *testing.T) {
	opt := Options{Scale: 0.12, Perf: true}
	a := mustRun(t, "noisy-neighbor", opt)
	b := mustRun(t, "noisy-neighbor", opt)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("fingerprints differ: %x vs %x", a.Fingerprint(), b.Fingerprint())
	}
	if a.PerfJSON != b.PerfJSON {
		t.Fatal("perf dumps differ between identical runs")
	}
	if a.PerfJSON == "" {
		t.Fatal("perf dump empty with Perf on")
	}
	c := mustRun(t, "noisy-neighbor", Options{Scale: 0.12})
	if c.PerfJSON != "" {
		t.Fatal("perf dump collected without Perf")
	}
}

// TestAdmissionMessengerSeamConcurrency drives the token buckets from many
// concurrent client procs through the OSD messenger; run under -race (the
// check script does) it doubles as the admission data-race test.
func TestAdmissionMessengerSeamConcurrency(t *testing.T) {
	res := mustRun(t, "noisy-neighbor", Options{Scale: 0.15})
	if res.Rejected == 0 {
		t.Fatal("noisy-neighbor should reject some of the noisy tenant's load")
	}
	if res.Offered != res.Accepted+res.Rejected {
		t.Fatalf("offered %d != accepted %d + rejected %d", res.Offered, res.Accepted, res.Rejected)
	}
	for _, tr := range res.Tenants {
		if tr.Name == "steady-gold" && tr.Rejected != 0 {
			t.Fatalf("unthrottled tenant was rejected %d times", tr.Rejected)
		}
	}
}

// TestStarvationFloor: a hog tenant offers far more than the cluster wants
// to give it, and a small throttled tenant still drains at its configured
// token rate — the bucket is a floor as well as a ceiling.
func TestStarvationFloor(t *testing.T) {
	const floor = 300.0 // victim's admission rate, ops/s
	src := `{
	  "name": "starvation",
	  "seed": 3,
	  "runtime_sec": 1.2,
	  "ramp_sec": 0.2,
	  "cluster": {"nodes": 2, "osds_per_node": 2, "pgs": 128, "replicas": 2},
	  "admission": true,
	  "tenants": [
	    {"name": "hog", "clients": 4, "in_flight": 16,
	     "arrival": {"process": "gamma", "rate_ops_sec": 5000, "cv": 2},
	     "mix": {"read_pct": 0, "sizes": [{"bytes": 32768, "weight": 1}]},
	     "admission": {"rate_ops_sec": 6000, "burst": 600}},
	    {"name": "victim", "clients": 2, "in_flight": 8,
	     "arrival": {"process": "poisson", "rate_ops_sec": 600},
	     "mix": {"read_pct": 0, "sizes": [{"bytes": 4096, "weight": 1}]},
	     "admission": {"rate_ops_sec": 300, "burst": 60}}
	  ]
	}`
	sc, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var victim TenantResult
	for _, tr := range res.Tenants {
		if tr.Name == "victim" {
			victim = tr
		}
	}
	if victim.Offered == 0 {
		t.Fatal("victim offered nothing")
	}
	// The victim offers ~1200 ops/s against a 300 ops/s limit over ~1.4s of
	// arrivals. It must neither be starved below its floor nor sneak past
	// the limit (burst + per-OSD rounding give the headroom).
	activeSec := sc.RampSec + sc.RuntimeSec
	want := floor * activeSec
	if got := float64(victim.Accepted); got < 0.5*want || got > 1.8*want+240 {
		t.Fatalf("victim accepted %g ops, want ~%g (floor %g ops/s over %gs)", got, want, floor, activeSec)
	}
	if victim.Rejected == 0 {
		t.Fatal("victim should have been clipped above its floor")
	}
}

// TestAdmissionProtectsSteadyTenant: in the noisy-neighbor and flash-crowd
// scenarios, turning admission on must measurably improve the steady gold
// tenant's p99 versus the same scenario with admission disabled.
func TestAdmissionProtectsSteadyTenant(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison runs are long; skipped in -short")
	}
	for _, name := range []string{"noisy-neighbor", "flash-crowd"} {
		on := mustRun(t, name, Options{Scale: 0.3})
		off := mustRun(t, name, Options{Scale: 0.3, DisableAdmission: true})
		var pOn, pOff TenantResult
		for i := range on.Tenants {
			if on.Tenants[i].Name == "steady-gold" {
				pOn, pOff = on.Tenants[i], off.Tenants[i]
			}
		}
		if pOn.Measured == 0 || pOff.Measured == 0 {
			t.Fatalf("%s: steady tenant unmeasured", name)
		}
		if pOn.Lat.P99 >= pOff.Lat.P99 {
			t.Errorf("%s: admission did not protect steady p99: on %.2fms vs off %.2fms", name, pOn.Lat.P99, pOff.Lat.P99)
		}
		if on.Rejected == 0 {
			t.Errorf("%s: admission on rejected nothing", name)
		}
		if off.Rejected != 0 {
			t.Errorf("%s: admission off still rejected %d", name, off.Rejected)
		}
	}
}

// TestFailoverUnderLoad: the canonical failover scenario loses nothing —
// every offered op is eventually accepted through retries around the crash.
func TestFailoverUnderLoad(t *testing.T) {
	res := mustRun(t, "failover-under-load", Options{Scale: 0.2})
	if res.Offered == 0 || res.Offered != res.Accepted {
		t.Fatalf("failover lost ops: offered %d accepted %d rejected %d", res.Offered, res.Accepted, res.Rejected)
	}
}

func TestRunRejectsInvalid(t *testing.T) {
	sc := &Scenario{Name: "bad"}
	if _, err := Run(sc, Options{}); err == nil {
		t.Fatal("Run accepted an invalid scenario")
	}
}

// TestClusterBlockMapsOntoParams: the cluster block's replica count becomes
// a repN pool (rep2 when the key is left out), and journal_mb and backend
// land on the OSD configuration every daemon is built from.
func TestClusterBlockMapsOntoParams(t *testing.T) {
	for _, tc := range []struct {
		replicas string // the "replicas" key, or "" to leave it out
		width    int
		pool     string
	}{{"", 2, "rep2"}, {`"replicas": 3,`, 3, "rep3"}} {
		src := fmt.Sprintf(`{
		  "name": "replicas", "runtime_sec": 0.1,
		  "cluster": {"nodes": 2, "osds_per_node": 2, %s
		              "backend": "directstore", "journal_mb": 16},
		  "tenants": [{"name": "t", "clients": 1, "arrival": {"process": "poisson", "rate_ops_sec": 10}}]
		}`, tc.replicas)
		sc, err := Parse([]byte(src))
		if err != nil {
			t.Fatal(err)
		}
		p := buildParams(sc, Options{})
		if p.Pool != tc.pool || p.OSD.Backend != "directstore" || p.OSD.JournalSize != 16<<20 {
			t.Errorf("replicas %q: pool %q backend %q journal %d", tc.replicas, p.Pool, p.OSD.Backend, p.OSD.JournalSize)
		}
		c := cluster.New(p)
		if w := c.PoolWidth(); w != tc.width {
			t.Errorf("replicas %q: built a %d-wide pool, want %d", tc.replicas, w, tc.width)
		}
		c.Close()
	}
}

// goldenScenarios pins the four canonical scenarios' fingerprints at
// Scale 0.12, as qa's goldenChaos pins the chaos runs. Update a value only
// with a change that means to alter a scenario run, and say so in its
// description.
var goldenScenarios = map[string]uint64{
	"steady-multi-tenant": 0xfe42ea84752096e1,
	"noisy-neighbor":      0xcd3b4ab80e530b98,
	"flash-crowd":         0x873fb0181518ed46,
	"failover-under-load": 0xc4903bdf6537953f,
}

// TestScenarioFingerprintsPinned: each canonical scenario still produces
// its recorded fingerprint.
func TestScenarioFingerprintsPinned(t *testing.T) {
	for _, name := range CanonNames {
		got := mustRun(t, name, Options{Scale: 0.12}).Fingerprint()
		if want, ok := goldenScenarios[name]; !ok || got != want {
			t.Errorf("%s: fingerprint %#x, want pinned %#x", name, got, want)
		}
	}
}
