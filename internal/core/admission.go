package core

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// Token-bucket admission control (the per-tenant QoS seam of the scenario
// engine). Ceph's throttles (ThrottleConfig) protect the OSD from aggregate
// overload by blocking; admission control protects *tenants from each
// other* by rejecting over-limit requests at the messenger before they
// consume a message-cap token or PG-queue slot. Rejection is cheap and
// explicit — the client sees it immediately instead of queueing behind a
// noisy neighbour's backlog.

// TokenBucket is a virtual-time token bucket: tokens refill continuously at
// rate per second up to burst, and Take spends them. All arithmetic is in
// simulated time, so refill is exact and deterministic; the token count can
// never go negative because Take only subtracts what is present.
type TokenBucket struct {
	rate   float64 // tokens per simulated second
	burst  float64 // bucket capacity
	tokens float64
	last   sim.Time
}

// NewTokenBucket returns a bucket that starts full (a tenant's first burst
// up to capacity is admitted) with the refill clock anchored at now.
func NewTokenBucket(rate, burst float64, now sim.Time) *TokenBucket {
	if rate < 0 {
		rate = 0
	}
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst, last: now}
}

// refill credits tokens for the simulated time elapsed since the last call.
func (b *TokenBucket) refill(now sim.Time) {
	if now <= b.last {
		return
	}
	b.tokens += b.rate * (now - b.last).Seconds()
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
}

// Take spends n tokens if at least n are available at now, reporting
// whether the caller was admitted.
func (b *TokenBucket) Take(now sim.Time, n float64) bool {
	b.refill(now)
	if b.tokens < n {
		return false
	}
	b.tokens -= n
	return true
}

// TenantRate is one tenant's admission limit. OpsPerSec <= 0 means the
// tenant is listed but unlimited (it is tracked, never rejected).
type TenantRate struct {
	Tenant    string
	OpsPerSec float64
	// Burst is the bucket capacity in ops; <= 0 defaults to
	// max(1, OpsPerSec/10) — a 100 ms ride-through.
	Burst float64
}

// AdmissionConfig lists the throttled tenants. The zero value disables
// admission control entirely (no bucket is consulted, no behaviour
// changes), which keeps every pre-existing seeded run bit-identical.
type AdmissionConfig struct {
	Tenants []TenantRate
}

// Enabled reports whether any tenant limit is configured.
func (c AdmissionConfig) Enabled() bool { return len(c.Tenants) > 0 }

// PerOSD divides every tenant's cluster-wide rate and burst evenly across n
// OSDs: each OSD enforces its share locally, which keeps bucket state
// shard-local (deterministic under the parallel kernel) at the cost of
// mildly over-rejecting when CRUSH skews a tenant's object placement.
func (c AdmissionConfig) PerOSD(n int) AdmissionConfig {
	if n <= 1 || !c.Enabled() {
		return c
	}
	out := AdmissionConfig{Tenants: make([]TenantRate, len(c.Tenants))}
	for i, t := range c.Tenants {
		t.OpsPerSec /= float64(n)
		if t.Burst > 0 {
			t.Burst /= float64(n)
		}
		out.Tenants[i] = t
	}
	return out
}

// AdmissionStats counts admission decisions at one enforcement point.
type AdmissionStats struct {
	Accepted stats.Counter
	Rejected stats.Counter
}

// Admission is one enforcement point's bucket set (per OSD in the cluster:
// buckets are keyed by tenant name, consulted on every tenanted client op).
// Tenants without a configured limit — and ops with no tenant at all — are
// always admitted without touching any state.
type Admission struct {
	buckets map[string]*TokenBucket
	stats   AdmissionStats
}

// NewAdmission builds the enforcement point; now anchors the refill clocks.
func NewAdmission(cfg AdmissionConfig, now sim.Time) *Admission {
	a := &Admission{buckets: make(map[string]*TokenBucket, len(cfg.Tenants))}
	for _, t := range cfg.Tenants {
		if t.Tenant == "" || t.OpsPerSec <= 0 {
			continue // unlimited tenants carry no bucket
		}
		burst := t.Burst
		if burst <= 0 {
			burst = t.OpsPerSec / 10
		}
		a.buckets[t.Tenant] = NewTokenBucket(t.OpsPerSec, burst, now)
	}
	return a
}

// Admit charges one op against the tenant's bucket, reporting whether the
// op may proceed. Unknown and unlimited tenants are always admitted.
func (a *Admission) Admit(now sim.Time, tenant string) bool {
	b := a.buckets[tenant]
	if b == nil || b.Take(now, 1) {
		a.stats.Accepted.Inc()
		return true
	}
	a.stats.Rejected.Inc()
	return false
}

// Stats returns the live decision counters.
func (a *Admission) Stats() *AdmissionStats { return &a.stats }
