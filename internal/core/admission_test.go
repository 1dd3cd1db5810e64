package core

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

// Property: over arbitrary interleavings of arrivals and clock advances,
// accepted + rejected == offered exactly, the token balance never goes
// negative, and total admissions never exceed what the refill could have
// produced (rate·elapsed + initial burst).
func TestTokenBucketProperty(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		rate := 100 + r.Float64()*5000
		burst := 1 + r.Float64()*200
		b := NewTokenBucket(rate, burst, 0)
		now := sim.Time(0)
		var offered, accepted, rejected uint64
		for i := 0; i < 5000; i++ {
			// Mixed advances: mostly sub-millisecond, occasionally long idles
			// that must clamp the refill at burst.
			if r.Bool(0.02) {
				now += sim.Time(r.Int63n(int64(2 * sim.Second)))
			} else {
				now += sim.Time(r.Int63n(int64(sim.Millisecond)))
			}
			n := 1 + r.Intn(3)
			for j := 0; j < n; j++ {
				offered++
				if b.Take(now, 1) {
					accepted++
				} else {
					rejected++
				}
				if tok := b.tokens; tok < 0 {
					t.Fatalf("seed %d: bucket went negative: %v", seed, tok)
				}
			}
		}
		if accepted+rejected != offered {
			t.Fatalf("seed %d: accepted %d + rejected %d != offered %d",
				seed, accepted, rejected, offered)
		}
		if ceiling := rate*now.Seconds() + burst; float64(accepted) > ceiling+1 {
			t.Fatalf("seed %d: accepted %d exceeds refill ceiling %.1f", seed, accepted, ceiling)
		}
	}
}

// The refill clock is monotone: a stale (earlier) timestamp neither credits
// tokens nor rewinds the anchor.
func TestTokenBucketStaleClock(t *testing.T) {
	b := NewTokenBucket(1000, 10, sim.Second)
	for i := 0; i < 10; i++ {
		if !b.Take(sim.Second, 1) {
			t.Fatalf("initial burst exhausted early at %d", i)
		}
	}
	if b.Take(sim.Second, 1) {
		t.Fatal("admitted past the burst with no time elapsed")
	}
	if b.Take(sim.Millisecond, 1) {
		t.Fatal("stale timestamp minted tokens")
	}
	if !b.Take(sim.Second+50*sim.Millisecond, 1) {
		t.Fatal("refill after 50ms at 1000/s must admit")
	}
}

func TestAdmissionUnknownTenantAlwaysAdmitted(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Tenants: []TenantRate{
		{Tenant: "noisy", OpsPerSec: 10, Burst: 1},
		{Tenant: "tracked-unlimited", OpsPerSec: 0},
	}}, 0)
	for i := 0; i < 1000; i++ {
		if !a.Admit(0, "stranger") {
			t.Fatal("unknown tenant rejected")
		}
		if !a.Admit(0, "tracked-unlimited") {
			t.Fatal("unlimited tenant rejected")
		}
	}
	if !a.Admit(0, "noisy") {
		t.Fatal("noisy tenant's burst token rejected")
	}
	if a.Admit(0, "noisy") {
		t.Fatal("noisy tenant admitted past its burst")
	}
	st := a.Stats()
	if got := st.Accepted.Value() + st.Rejected.Value(); got != 2002 {
		t.Fatalf("decision counters = %d, want 2002", got)
	}
	if len(a.buckets) != 1 || a.buckets["noisy"] == nil {
		t.Fatalf("throttled tenants = %v, want [noisy]", a.buckets)
	}
}

// PerOSD division preserves the aggregate rate and never zeroes a bucket.
func TestAdmissionPerOSDDivision(t *testing.T) {
	cfg := AdmissionConfig{Tenants: []TenantRate{
		{Tenant: "a", OpsPerSec: 8000, Burst: 800},
		{Tenant: "b", OpsPerSec: 5, Burst: 0},
	}}
	div := cfg.PerOSD(16)
	if div.Tenants[0].OpsPerSec != 500 || div.Tenants[0].Burst != 50 {
		t.Fatalf("divided tenant a = %+v", div.Tenants[0])
	}
	if div.Tenants[1].Burst != 0 {
		t.Fatalf("unset burst must stay unset for the default rule: %+v", div.Tenants[1])
	}
	a := NewAdmission(div, 0)
	if b := a.buckets["b"]; b == nil || b.burst < 1 {
		t.Fatalf("tiny divided rate must keep a usable bucket: %+v", b)
	}
	if !cfg.PerOSD(1).Enabled() || cfg.PerOSD(1).Tenants[0].OpsPerSec != 8000 {
		t.Fatal("PerOSD(1) must be the identity")
	}
}
