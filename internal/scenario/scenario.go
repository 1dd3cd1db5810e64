// Package scenario is the declarative multi-tenant workload engine: a
// scenario file (plain JSON plus full-line `//` comments, see decode.go)
// describes N tenants × M clients with Poisson/Gamma/Weibull interarrival
// processes, size/read mixes, diurnal ramps and burst storms, plus SLO
// classes and per-tenant token-bucket admission limits. The engine compiles
// it into deterministic open-loop generators over a simulated cluster and
// reports per-tenant / per-SLO-class latency, throughput, admission
// decisions and a Jain fairness index.
//
// Everything is deterministic: the same scenario and seed produce
// bit-identical results under any host parallelism (the differential
// determinism tests enforce it), which is what makes admission-on vs
// admission-off comparisons of the same scenario meaningful.
package scenario

import (
	"fmt"

	"repro/internal/osd"
)

// Bounds keep fuzzed and hand-written scenarios inside what a laptop-sized
// simulation can actually run; Validate enforces them.
const (
	maxTenants    = 32
	maxClients    = 64
	maxInFlight   = 256
	maxNodes      = 16
	maxOSDsPer    = 8
	maxPGs        = 4096
	maxImageMB    = 4096
	maxSizeBytes  = 4 << 20 // one RBD object
	maxRateOpsSec = 1e6
	maxRuntimeSec = 60
	maxSeed       = 1 << 53 // exactly representable as a JSON number
)

// Scenario is one complete experiment description.
type Scenario struct {
	Name       string      `json:"name"`
	Seed       uint64      `json:"seed"`
	RuntimeSec float64     `json:"runtime_sec"` // measured window (after ramp)
	RampSec    float64     `json:"ramp_sec"`    // warm-up, excluded from measurement
	Cluster    ClusterSpec `json:"cluster"`
	// Admission turns per-tenant token-bucket admission control on; the
	// limits themselves live on each tenant (Tenant.Admission).
	Admission bool         `json:"admission"`
	Failure   *FailureSpec `json:"failure"`
	Tenants   []TenantSpec `json:"tenants"`
}

// ClusterSpec shapes the simulated cluster under the tenants. Parse starts
// from defaultCluster, so a key the file leaves out keeps its default.
type ClusterSpec struct {
	Nodes       int    `json:"nodes"`
	OSDsPerNode int    `json:"osds_per_node"`
	SSDsPerOSD  int    `json:"ssds_per_osd"`
	PGs         int    `json:"pgs"`
	Replicas    int    `json:"replicas"`
	Profile     string `json:"profile"`
	Backend     string `json:"backend"` // "" (profile default) | "filestore" | "directstore"
	JournalMB   int    `json:"journal_mb"`
	// Robustness knobs, required when Failure is set.
	OpTimeoutMs      float64 `json:"op_timeout_ms"`
	HeartbeatMs      float64 `json:"heartbeat_ms"`
	HeartbeatGraceMs float64 `json:"heartbeat_grace_ms"`
}

// TenantSpec is one tenant: a fleet of identical clients with an arrival
// process, an op mix, optional rate modulation and an optional admission
// limit.
type TenantSpec struct {
	Name    string `json:"name"`
	Class   string `json:"slo_class"` // SLO class; default "standard"
	Clients int    `json:"clients"`
	ImageMB int    `json:"image_mb"` // per-client image; default 64
	// InFlight is the per-client service concurrency (worker slots draining
	// the arrival queue); default 8.
	InFlight  int           `json:"in_flight"`
	Arrival   ArrivalSpec   `json:"arrival"`
	Mix       MixSpec       `json:"mix"`
	Diurnal   *DiurnalSpec  `json:"diurnal"`
	Burst     *BurstSpec    `json:"burst"`
	Admission *ThrottleSpec `json:"admission"`
}

// Arrival process names.
const (
	ProcPoisson = "poisson"
	ProcGamma   = "gamma"
	ProcWeibull = "weibull"
)

// ArrivalSpec selects the interarrival process per client. RateOpsSec is
// the mean arrival rate of ONE client; CV is the coefficient of variation
// of the interarrival time (gamma/weibull only — poisson is fixed at 1).
type ArrivalSpec struct {
	Process    string  `json:"process"`
	RateOpsSec float64 `json:"rate_ops_sec"`
	CV         float64 `json:"cv"` // default 1
}

// MixSpec is the op mix: read percentage, offset pattern, and a weighted
// size distribution.
type MixSpec struct {
	ReadPct int          `json:"read_pct"`
	Pattern string       `json:"pattern"` // "rand" (default) | "seq"
	Sizes   []SizeWeight `json:"sizes"`
}

// SizeWeight is one entry of the size distribution.
type SizeWeight struct {
	Bytes  int64   `json:"bytes"`
	Weight float64 `json:"weight"`
}

// DiurnalSpec modulates the arrival rate sinusoidally:
// rate(t) = base · (1 + Amplitude·sin(2πt/Period)), t measured from the
// start of the run.
type DiurnalSpec struct {
	PeriodSec float64 `json:"period_sec"`
	Amplitude float64 `json:"amplitude"` // in [0, 0.95]
}

// BurstSpec is a storm: between AtSec and AtSec+DurationSec (scenario
// time), the tenant's arrival rate is multiplied by Multiplier.
type BurstSpec struct {
	AtSec       float64 `json:"at_sec"`
	DurationSec float64 `json:"duration_sec"`
	Multiplier  float64 `json:"multiplier"`
}

// ThrottleSpec is a tenant's cluster-wide admission limit.
type ThrottleSpec struct {
	OpsPerSec float64 `json:"rate_ops_sec"`
	Burst     float64 `json:"burst"` // tokens; 0 = OpsPerSec/10 default
}

// FailureSpec crashes one OSD mid-run and restarts+recovers it later —
// failover under load.
type FailureSpec struct {
	OSD          int     `json:"osd"`
	AtSec        float64 `json:"at_sec"`
	RecoverAtSec float64 `json:"recover_at_sec"`
}

// Validate checks the scenario and returns a descriptive error for the
// first violation found. It never panics: scenario files are user input,
// not model code.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("scenario: name is required")
	}
	if sc.Seed > maxSeed {
		return fmt.Errorf("scenario %s: seed %d exceeds 2^53 (not exactly representable in JSON)", sc.Name, sc.Seed)
	}
	if sc.RuntimeSec <= 0 || sc.RuntimeSec > maxRuntimeSec {
		return fmt.Errorf("scenario %s: runtime_sec %g out of (0, %d]", sc.Name, sc.RuntimeSec, maxRuntimeSec)
	}
	if sc.RampSec < 0 || sc.RampSec > maxRuntimeSec {
		return fmt.Errorf("scenario %s: ramp_sec %g out of [0, %d]", sc.Name, sc.RampSec, maxRuntimeSec)
	}
	if err := sc.Cluster.validate(sc.Name); err != nil {
		return err
	}
	if len(sc.Tenants) == 0 {
		return fmt.Errorf("scenario %s: at least one tenant is required", sc.Name)
	}
	if len(sc.Tenants) > maxTenants {
		return fmt.Errorf("scenario %s: %d tenants exceeds the %d-tenant bound", sc.Name, len(sc.Tenants), maxTenants)
	}
	seen := make(map[string]bool, len(sc.Tenants))
	for i := range sc.Tenants {
		t := &sc.Tenants[i]
		if err := t.validate(sc.Name); err != nil {
			return err
		}
		if seen[t.Name] {
			return fmt.Errorf("scenario %s: duplicate tenant %q", sc.Name, t.Name)
		}
		seen[t.Name] = true
	}
	if f := sc.Failure; f != nil {
		osds := sc.Cluster.Nodes * sc.Cluster.OSDsPerNode
		if f.OSD < 0 || f.OSD >= osds {
			return fmt.Errorf("scenario %s: failure.osd %d out of [0, %d)", sc.Name, f.OSD, osds)
		}
		if f.AtSec <= 0 || f.AtSec >= sc.RampSec+sc.RuntimeSec {
			return fmt.Errorf("scenario %s: failure.at_sec %g must fall inside the run", sc.Name, f.AtSec)
		}
		if f.RecoverAtSec <= f.AtSec {
			return fmt.Errorf("scenario %s: failure.recover_at_sec %g must follow at_sec %g", sc.Name, f.RecoverAtSec, f.AtSec)
		}
		if sc.Cluster.OpTimeoutMs <= 0 {
			return fmt.Errorf("scenario %s: failure requires cluster.op_timeout_ms > 0 (clients must retry around the crash)", sc.Name)
		}
		if sc.Cluster.HeartbeatMs <= 0 {
			return fmt.Errorf("scenario %s: failure requires cluster.heartbeat_ms > 0 (the crash must be detected)", sc.Name)
		}
	}
	return nil
}

// validate bounds the cluster block to what a laptop-sized simulation can
// run, then leaves every other check to the params it builds.
func (c *ClusterSpec) validate(scn string) error {
	if c.Nodes < 1 || c.Nodes > maxNodes {
		return fmt.Errorf("scenario %s: cluster.nodes %d out of [1, %d]", scn, c.Nodes, maxNodes)
	}
	if c.OSDsPerNode < 1 || c.OSDsPerNode > maxOSDsPer {
		return fmt.Errorf("scenario %s: cluster.osds_per_node %d out of [1, %d]", scn, c.OSDsPerNode, maxOSDsPer)
	}
	if c.SSDsPerOSD < 1 || c.SSDsPerOSD > 8 {
		return fmt.Errorf("scenario %s: cluster.ssds_per_osd %d out of [1, 8]", scn, c.SSDsPerOSD)
	}
	if c.PGs < 1 || c.PGs > maxPGs {
		return fmt.Errorf("scenario %s: cluster.pgs %d out of [1, %d]", scn, c.PGs, maxPGs)
	}
	if _, err := osd.ProfileByName(c.Profile); err != nil {
		return fmt.Errorf("scenario %s: cluster.profile: %v", scn, err)
	}
	if c.JournalMB < 1 || c.JournalMB > 2048 {
		return fmt.Errorf("scenario %s: cluster.journal_mb %d out of [1, 2048]", scn, c.JournalMB)
	}
	if c.OpTimeoutMs < 0 || c.HeartbeatMs < 0 || c.HeartbeatGraceMs < 0 {
		return fmt.Errorf("scenario %s: cluster timeouts must be non-negative", scn)
	}
	if err := c.params().Validate(); err != nil {
		return fmt.Errorf("scenario %s: cluster: %v", scn, err)
	}
	return nil
}

func (t *TenantSpec) validate(scn string) error {
	if t.Name == "" {
		return fmt.Errorf("scenario %s: tenant name is required", scn)
	}
	if t.Clients < 1 || t.Clients > maxClients {
		return fmt.Errorf("scenario %s: tenant %s: clients %d out of [1, %d]", scn, t.Name, t.Clients, maxClients)
	}
	if t.ImageMB < 0 || t.ImageMB > maxImageMB {
		return fmt.Errorf("scenario %s: tenant %s: image_mb %d out of [0, %d]", scn, t.Name, t.ImageMB, maxImageMB)
	}
	if t.InFlight < 0 || t.InFlight > maxInFlight {
		return fmt.Errorf("scenario %s: tenant %s: in_flight %d out of [0, %d]", scn, t.Name, t.InFlight, maxInFlight)
	}
	a := &t.Arrival
	switch a.Process {
	case ProcPoisson, ProcGamma, ProcWeibull:
	case "":
		return fmt.Errorf("scenario %s: tenant %s: arrival.process is required (poisson, gamma or weibull)", scn, t.Name)
	default:
		return fmt.Errorf("scenario %s: tenant %s: arrival.process %q is not poisson, gamma or weibull", scn, t.Name, a.Process)
	}
	if a.RateOpsSec <= 0 || a.RateOpsSec > maxRateOpsSec {
		return fmt.Errorf("scenario %s: tenant %s: arrival.rate_ops_sec %g out of (0, %g]", scn, t.Name, a.RateOpsSec, float64(maxRateOpsSec))
	}
	if a.CV < 0 || a.CV > 10 {
		return fmt.Errorf("scenario %s: tenant %s: arrival.cv %g out of [0, 10]", scn, t.Name, a.CV)
	}
	if a.Process == ProcPoisson && a.CV != 0 && a.CV != 1 {
		return fmt.Errorf("scenario %s: tenant %s: poisson arrivals have cv fixed at 1 (got %g); use gamma or weibull to shape the cv", scn, t.Name, a.CV)
	}
	if t.Mix.ReadPct < 0 || t.Mix.ReadPct > 100 {
		return fmt.Errorf("scenario %s: tenant %s: mix.read_pct %d out of [0, 100]", scn, t.Name, t.Mix.ReadPct)
	}
	switch t.Mix.Pattern {
	case "", "rand", "seq":
	default:
		return fmt.Errorf("scenario %s: tenant %s: mix.pattern %q is not rand or seq", scn, t.Name, t.Mix.Pattern)
	}
	imageBytes := int64(t.ImageMB) << 20
	if imageBytes == 0 {
		imageBytes = 64 << 20
	}
	for _, s := range t.Mix.Sizes {
		if s.Bytes <= 0 || s.Bytes > maxSizeBytes {
			return fmt.Errorf("scenario %s: tenant %s: mix size %d out of (0, %d]", scn, t.Name, s.Bytes, int64(maxSizeBytes))
		}
		if s.Bytes > imageBytes {
			return fmt.Errorf("scenario %s: tenant %s: mix size %d exceeds the %d-byte image", scn, t.Name, s.Bytes, imageBytes)
		}
		if s.Weight <= 0 {
			return fmt.Errorf("scenario %s: tenant %s: mix size %d has non-positive weight %g", scn, t.Name, s.Bytes, s.Weight)
		}
	}
	if d := t.Diurnal; d != nil {
		if d.PeriodSec <= 0 {
			return fmt.Errorf("scenario %s: tenant %s: diurnal.period_sec %g must be positive", scn, t.Name, d.PeriodSec)
		}
		if d.Amplitude < 0 || d.Amplitude > 0.95 {
			return fmt.Errorf("scenario %s: tenant %s: diurnal.amplitude %g out of [0, 0.95]", scn, t.Name, d.Amplitude)
		}
	}
	if b := t.Burst; b != nil {
		if b.AtSec < 0 {
			return fmt.Errorf("scenario %s: tenant %s: burst.at_sec %g must be non-negative", scn, t.Name, b.AtSec)
		}
		if b.DurationSec <= 0 {
			return fmt.Errorf("scenario %s: tenant %s: burst.duration_sec %g must be positive", scn, t.Name, b.DurationSec)
		}
		if b.Multiplier <= 0 || b.Multiplier > 100 {
			return fmt.Errorf("scenario %s: tenant %s: burst.multiplier %g out of (0, 100]", scn, t.Name, b.Multiplier)
		}
	}
	if ad := t.Admission; ad != nil {
		if ad.OpsPerSec <= 0 || ad.OpsPerSec > maxRateOpsSec {
			return fmt.Errorf("scenario %s: tenant %s: admission.rate_ops_sec %g out of (0, %g]", scn, t.Name, ad.OpsPerSec, float64(maxRateOpsSec))
		}
		if ad.Burst < 0 {
			return fmt.Errorf("scenario %s: tenant %s: admission.burst %g must be non-negative", scn, t.Name, ad.Burst)
		}
	}
	return nil
}
