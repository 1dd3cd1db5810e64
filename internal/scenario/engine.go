package scenario

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/osd"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Options tunes a scenario run without editing the scenario itself.
type Options struct {
	// Scale multiplies every duration in the scenario (runtime, ramp, burst
	// windows, diurnal period, failure times) so the same file runs as a
	// quick smoke test or a long experiment. <= 0 means 1.
	Scale float64
	// DisableAdmission runs the scenario with admission control forced off
	// (the control arm of the noisy-neighbor comparison).
	DisableAdmission bool
	// Perf collects the cluster perf dump (plus the scenario's own
	// per-tenant/per-class subsystems) into Result.PerfJSON.
	Perf bool
}

// TenantResult is one tenant's aggregate outcome.
type TenantResult struct {
	Name    string
	Class   string
	Clients int
	// Offered counts every generated arrival over the whole run; Accepted +
	// Rejected == Offered exactly once the run drains.
	Offered  uint64
	Accepted uint64
	Rejected uint64
	// Measured is the accepted ops whose arrival fell inside the measured
	// window; IOPS and Lat are computed over those.
	Measured uint64
	IOPS     float64
	Lat      stats.Snapshot // milliseconds, arrival→completion
}

// ClassResult aggregates every tenant of one SLO class. Class counters are
// incremented independently of tenant and cluster counters, and the
// breakdown telescopes: summing any column over classes reproduces the
// cluster total exactly.
type ClassResult struct {
	Class    string
	Offered  uint64
	Accepted uint64
	Rejected uint64
	Measured uint64
	IOPS     float64
	Lat      stats.Snapshot
}

// Result is a full scenario outcome.
type Result struct {
	Name        string
	Seed        uint64
	AdmissionOn bool
	RuntimeSec  float64 // measured window, after scaling
	Tenants     []TenantResult
	Classes     []ClassResult
	// Cluster totals (independent counters, not sums of the above).
	Offered  uint64
	Accepted uint64
	Rejected uint64
	Measured uint64
	IOPS     float64
	Lat      stats.Snapshot
	// OSD-side admission decisions at the messenger seam. Without failures
	// every offered op is decided exactly once, so OSDAccepted+OSDRejected
	// == Offered; client retries under failover can decide an op more than
	// once, making the OSD side >=.
	OSDAccepted uint64
	OSDRejected uint64
	// Fairness is the Jain index over per-tenant measured throughput.
	Fairness      float64
	SimulatedTime sim.Time
	// Events and Resumes are the kernel's work counters at the end of the
	// run (Kernel.Dispatched and Kernel.Resumes). They are not part of the
	// fingerprint.
	Events   uint64
	Resumes  uint64
	PerfJSON string
}

// agg is one measurement bucket (tenant, class or cluster).
type agg struct {
	offered, accepted, rejected, measured stats.Counter
	hist                                  *stats.Histogram
}

func newAgg() *agg { return &agg{hist: stats.NewHistogram()} }

// arrivalRec is one generated op, fully drawn at arrival time so the event
// content never depends on which worker slot services it.
type arrivalRec struct {
	at    sim.Time
	read  bool
	oid   string
	off   int64
	size  int64
	stamp uint64
}

// resolved fills a tenant's defaults.
type resolvedTenant struct {
	TenantSpec
	imageBytes int64
	sizes      []SizeWeight
	totalW     float64
}

func resolveTenant(t *TenantSpec) resolvedTenant {
	r := resolvedTenant{TenantSpec: *t}
	if r.Class == "" {
		r.Class = "standard"
	}
	if r.ImageMB == 0 {
		r.ImageMB = 64
	}
	if r.InFlight == 0 {
		r.InFlight = 8
	}
	if r.Mix.Pattern == "" {
		r.Mix.Pattern = "rand"
	}
	r.imageBytes = int64(r.ImageMB) << 20
	r.sizes = r.Mix.Sizes
	if len(r.sizes) == 0 {
		r.sizes = []SizeWeight{{Bytes: 4096, Weight: 1}}
	}
	for _, s := range r.sizes {
		r.totalW += s.Weight
	}
	return r
}

// params maps the cluster block onto the simulator's testbed params. An
// unknown profile maps to the zero (stock) tuning; validate rejects it.
func (c *ClusterSpec) params() cluster.Params {
	t, _ := osd.ProfileByName(c.Profile)
	p := cluster.ParamsFor(t)
	p.OSDNodes = c.Nodes
	p.OSDsPerNode = c.OSDsPerNode
	p.SSDsPerOSD = c.SSDsPerOSD
	p.PGs = uint32(c.PGs)
	p.Pool = fmt.Sprintf("rep%d", c.Replicas)
	p.OSD.JournalSize = int64(c.JournalMB) << 20
	p.OSD.Backend = c.Backend
	// Client/heartbeat timeouts are latency-domain knobs: they model real
	// configuration, so Options.Scale (a duration-domain convenience) does
	// not shrink them.
	p.ClientOpTimeout = sim.Time(c.OpTimeoutMs * float64(sim.Millisecond))
	p.HeartbeatInterval = sim.Time(c.HeartbeatMs * float64(sim.Millisecond))
	p.HeartbeatGrace = sim.Time(c.HeartbeatGraceMs * float64(sim.Millisecond))
	return p
}

// buildParams is the cluster block's params plus the scenario's seed and,
// unless opt disables it, its admission limits. The scenario must have
// passed Validate.
func buildParams(sc *Scenario, opt Options) cluster.Params {
	p := sc.Cluster.params()
	p.Seed = sc.Seed
	if sc.Admission && !opt.DisableAdmission {
		var ac core.AdmissionConfig
		for i := range sc.Tenants {
			t := &sc.Tenants[i]
			if t.Admission != nil {
				ac.Tenants = append(ac.Tenants, core.TenantRate{
					Tenant:    t.Name,
					OpsPerSec: t.Admission.OpsPerSec,
					Burst:     t.Admission.Burst,
				})
			}
		}
		p.Admission = ac
	}
	return p
}

// Run executes the scenario and returns its Result. The run is fully
// deterministic in (scenario, Options): every random draw comes from
// per-client streams keyed on (seed, tenant index, client index), and all
// op content is drawn at arrival time, so neither worker scheduling nor
// host parallelism can reorder the stream.
func Run(sc *Scenario, opt Options) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	scale := opt.Scale
	if scale <= 0 {
		scale = 1
	}
	scaleTime := func(sec float64) sim.Time { return sim.Time(sec * scale * float64(sim.Second)) }
	runtime := scaleTime(sc.RuntimeSec)
	if runtime < 50*sim.Millisecond {
		runtime = 50 * sim.Millisecond
	}
	ramp := scaleTime(sc.RampSec)

	params := buildParams(sc, opt)
	c := cluster.New(params)
	defer c.Close()
	k := c.K

	tenants := make([]resolvedTenant, len(sc.Tenants))
	for i := range sc.Tenants {
		tenants[i] = resolveTenant(&sc.Tenants[i])
	}

	// Prefill images of read-mixed tenants so reads hit existing objects.
	// This advances the simulated clock; the measured run starts after it.
	// The kernel is advanced in bounded slices rather than sim.Forever
	// because heartbeat loops (failover scenarios) never run dry.
	var prefill []*cluster.BlockDevice
	for ti := range tenants {
		t := &tenants[ti]
		if t.Mix.ReadPct <= 0 {
			continue
		}
		for ci := 0; ci < t.Clients; ci++ {
			bd := c.NewClient().OpenDevice(imageName(t.Name, ci), t.imageBytes)
			prefill = append(prefill, bd)
		}
	}
	if len(prefill) > 0 {
		done := sim.NewWaitGroup(k)
		for i, bd := range prefill {
			bd := bd
			done.Add(1)
			k.Go(fmt.Sprintf("scn.prefill.%d", i), func(p *sim.Proc) {
				for off := int64(0); off < bd.Size(); off += cluster.ObjectSize {
					bd.WriteAt(p, off, 4096, 1)
				}
				done.Done()
			})
		}
		filled := false
		k.Go("scn.prefill.wait", func(p *sim.Proc) { done.Wait(p); filled = true })
		for !filled {
			k.Run(k.Now() + 100*sim.Millisecond)
		}
	}

	start := k.Now()
	measureFrom := start + ramp
	end := measureFrom + runtime

	tAggs := make([]*agg, len(tenants))
	var classOrder []string
	cAggs := make(map[string]*agg)
	total := newAgg()
	for ti := range tenants {
		tAggs[ti] = newAgg()
		cls := tenants[ti].Class
		if _, ok := cAggs[cls]; !ok {
			classOrder = append(classOrder, cls)
			cAggs[cls] = newAgg()
		}
	}

	wg := sim.NewWaitGroup(k)
	for ti := range tenants {
		t := &tenants[ti]
		ta := tAggs[ti]
		ca := cAggs[t.Class]
		samp := newSampler(t.Arrival)
		mod := newRateMult(&t.TenantSpec, scale)
		for ci := 0; ci < t.Clients; ci++ {
			ti, ci := ti, ci
			cl := c.NewClientTenant(t.Name)
			r := rng.New(mixSeed(sc.Seed, ti, ci))
			q := sim.NewQueue[arrivalRec](k, fmt.Sprintf("scn.t%d.c%d", ti, ci), 0)
			gen := &opGen{t: t, r: r, base: fmt.Sprintf("rbd.%s.", imageName(t.Name, ci))}
			wg.Add(1)
			k.Go(fmt.Sprintf("scn.arrive.t%d.c%d", ti, ci), func(p *sim.Proc) {
				defer wg.Done()
				stamp := uint64(ti)<<48 | uint64(ci)<<32
				for {
					mult := mod.at((p.Now() - start).Seconds())
					p.Sleep(samp.next(r, mult))
					if p.Now() >= end {
						break
					}
					stamp++
					rec := gen.draw(p.Now(), stamp)
					ta.offered.Inc()
					ca.offered.Inc()
					total.offered.Inc()
					q.Push(p, rec)
				}
				q.Close()
			})
			for w := 0; w < t.InFlight; w++ {
				w := w
				wg.Add(1)
				k.Go(fmt.Sprintf("scn.work.t%d.c%d.%d", ti, ci, w), func(p *sim.Proc) {
					defer wg.Done()
					for {
						rec, ok := q.Pop(p)
						if !ok {
							return
						}
						var admitted bool
						if rec.read {
							_, _, admitted = cl.TryReadObject(p, rec.oid, rec.off, rec.size)
						} else {
							admitted = cl.TryWriteObject(p, rec.oid, rec.off, rec.size, rec.stamp)
						}
						measured := rec.at >= measureFrom && rec.at < end
						if admitted {
							ta.accepted.Inc()
							ca.accepted.Inc()
							total.accepted.Inc()
							if measured {
								ta.measured.Inc()
								ca.measured.Inc()
								total.measured.Inc()
								d := int64(p.Now() - rec.at)
								ta.hist.Record(d)
								ca.hist.Record(d)
								total.hist.Record(d)
							}
						} else {
							ta.rejected.Inc()
							ca.rejected.Inc()
							total.rejected.Inc()
						}
					}
				})
			}
		}
	}

	if f := sc.Failure; f != nil {
		at := scaleTime(f.AtSec)
		recoverAt := scaleTime(f.RecoverAtSec)
		k.Go("scn.failure", func(p *sim.Proc) {
			p.Sleep(at)
			c.CrashOSD(f.OSD)
			p.Sleep(recoverAt - at)
			c.RestartOSDIn(p, f.OSD)
			c.RecoverOSDIn(p, f.OSD)
		})
	}

	// Heartbeats run forever; stop them once the workload drains so the
	// kernel can run dry.
	k.Go("scn.drain", func(p *sim.Proc) {
		wg.Wait(p)
		if params.HeartbeatInterval > 0 {
			c.StopHeartbeats()
		}
	})
	k.Run(sim.Forever)

	res := &Result{
		Name:          sc.Name,
		Seed:          sc.Seed,
		AdmissionOn:   params.Admission.Enabled(),
		RuntimeSec:    runtime.Seconds(),
		SimulatedTime: k.Now(),
		Events:        k.Dispatched(),
		Resumes:       k.Resumes(),
	}
	for ti := range tenants {
		t := &tenants[ti]
		a := tAggs[ti]
		res.Tenants = append(res.Tenants, TenantResult{
			Name:     t.Name,
			Class:    t.Class,
			Clients:  t.Clients,
			Offered:  a.offered.Value(),
			Accepted: a.accepted.Value(),
			Rejected: a.rejected.Value(),
			Measured: a.measured.Value(),
			IOPS:     float64(a.measured.Value()) / runtime.Seconds(),
			Lat:      a.hist.SnapshotMillis(),
		})
	}
	for _, cls := range classOrder {
		a := cAggs[cls]
		res.Classes = append(res.Classes, ClassResult{
			Class:    cls,
			Offered:  a.offered.Value(),
			Accepted: a.accepted.Value(),
			Rejected: a.rejected.Value(),
			Measured: a.measured.Value(),
			IOPS:     float64(a.measured.Value()) / runtime.Seconds(),
			Lat:      a.hist.SnapshotMillis(),
		})
	}
	res.Offered = total.offered.Value()
	res.Accepted = total.accepted.Value()
	res.Rejected = total.rejected.Value()
	res.Measured = total.measured.Value()
	res.IOPS = float64(res.Measured) / runtime.Seconds()
	res.Lat = total.hist.SnapshotMillis()
	res.OSDAccepted, res.OSDRejected = c.AdmissionTotals()
	shares := make([]float64, len(res.Tenants))
	for i, t := range res.Tenants {
		shares[i] = float64(t.Measured)
	}
	res.Fairness = stats.JainFairness(shares)

	if opt.Perf {
		reg := c.Perf()
		for ti := range tenants {
			s := reg.Sub("scenario.tenant." + tenants[ti].Name)
			a := tAggs[ti]
			s.Counter("offered", &a.offered)
			s.Counter("accepted", &a.accepted)
			s.Counter("rejected", &a.rejected)
			s.Counter("measured", &a.measured)
			s.Histogram("latency", a.hist)
		}
		for _, cls := range classOrder {
			s := reg.Sub("scenario.class." + cls)
			a := cAggs[cls]
			s.Counter("offered", &a.offered)
			s.Counter("accepted", &a.accepted)
			s.Counter("rejected", &a.rejected)
			s.Counter("measured", &a.measured)
			s.Histogram("latency", a.hist)
		}
		s := reg.Sub("scenario.total")
		s.Counter("offered", &total.offered)
		s.Counter("accepted", &total.accepted)
		s.Counter("rejected", &total.rejected)
		s.Counter("measured", &total.measured)
		s.Histogram("latency", total.hist)
		res.PerfJSON = reg.DumpJSON()
	}
	return res, nil
}

func imageName(tenant string, ci int) string {
	return fmt.Sprintf("%s.c%d", tenant, ci)
}

// mixSeed derives a per-client stream key with a splitmix64 finalizer so
// adjacent (tenant, client) pairs land far apart in seed space.
func mixSeed(seed uint64, ti, ci int) uint64 {
	z := seed + 0x9e3779b97f4a7c15*uint64(ti*maxClients+ci+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// opGen draws op content (direction, size, offset → object) for one client.
// Draw order is fixed — size, direction, offset — so the stream is stable.
type opGen struct {
	t         *resolvedTenant
	r         *rng.Rand
	base      string // "rbd.<image>."
	names     []string
	seqCursor int64
}

func (g *opGen) draw(at sim.Time, stamp uint64) arrivalRec {
	t := g.t
	size := t.sizes[0].Bytes
	if len(t.sizes) > 1 {
		u := g.r.Float64() * t.totalW
		for _, s := range t.sizes {
			size = s.Bytes
			if u < s.Weight {
				break
			}
			u -= s.Weight
		}
	}
	read := false
	if t.Mix.ReadPct > 0 {
		read = g.r.Intn(100) < t.Mix.ReadPct
	}
	var off int64
	if t.Mix.Pattern == "seq" {
		if g.seqCursor+size > t.imageBytes {
			g.seqCursor = 0
		}
		off = g.seqCursor
		g.seqCursor += size
	} else {
		slots := (t.imageBytes-size)/4096 + 1
		off = g.r.Int63n(slots) * 4096
	}
	// Clamp within one 4 MB object so an op never splits (Validate caps
	// sizes at ObjectSize).
	if rem := off % cluster.ObjectSize; rem+size > cluster.ObjectSize {
		off -= rem + size - cluster.ObjectSize
	}
	idx := off / cluster.ObjectSize
	for int64(len(g.names)) <= idx {
		g.names = append(g.names, fmt.Sprintf("%s%d", g.base, len(g.names)))
	}
	return arrivalRec{at: at, read: read, oid: g.names[idx], off: off % cluster.ObjectSize, size: size, stamp: stamp}
}

// Fingerprint folds every counter and latency quantile into one 64-bit
// FNV-1a hash; the differential determinism tests compare fingerprints
// across host-parallelism settings.
func (r *Result) Fingerprint() uint64 { //afvet:allow unused qa/differential_test.go and engine_test.go compare runs through it
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mixStr := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	mixSnap := func(s stats.Snapshot) {
		mix(s.Count)
		mix(math.Float64bits(s.Mean))
		mix(math.Float64bits(s.P50))
		mix(math.Float64bits(s.P99))
		mix(math.Float64bits(s.Max))
	}
	mixStr(r.Name)
	mix(r.Seed)
	for _, t := range r.Tenants {
		mixStr(t.Name)
		mixStr(t.Class)
		mix(t.Offered)
		mix(t.Accepted)
		mix(t.Rejected)
		mix(t.Measured)
		mixSnap(t.Lat)
	}
	for _, c := range r.Classes {
		mixStr(c.Class)
		mix(c.Offered)
		mix(c.Accepted)
		mix(c.Rejected)
		mix(c.Measured)
		mixSnap(c.Lat)
	}
	mix(r.Offered)
	mix(r.Accepted)
	mix(r.Rejected)
	mix(r.Measured)
	mixSnap(r.Lat)
	mix(r.OSDAccepted)
	mix(r.OSDRejected)
	mix(math.Float64bits(r.Fairness))
	mix(uint64(r.SimulatedTime))
	return h
}

// Table renders the per-tenant and per-class breakdown as text.
func (r *Result) Table() string {
	header := []string{"tenant", "class", "offered", "accepted", "rejected", "iops", "p50(ms)", "p99(ms)"}
	var rows [][]string
	for _, t := range r.Tenants {
		rows = append(rows, []string{
			t.Name, t.Class,
			fmt.Sprintf("%d", t.Offered), fmt.Sprintf("%d", t.Accepted), fmt.Sprintf("%d", t.Rejected),
			fmt.Sprintf("%.0f", t.IOPS), fmt.Sprintf("%.2f", t.Lat.P50), fmt.Sprintf("%.2f", t.Lat.P99),
		})
	}
	for _, c := range r.Classes {
		rows = append(rows, []string{
			"class:" + c.Class, "",
			fmt.Sprintf("%d", c.Offered), fmt.Sprintf("%d", c.Accepted), fmt.Sprintf("%d", c.Rejected),
			fmt.Sprintf("%.0f", c.IOPS), fmt.Sprintf("%.2f", c.Lat.P50), fmt.Sprintf("%.2f", c.Lat.P99),
		})
	}
	rows = append(rows, []string{
		"TOTAL", "",
		fmt.Sprintf("%d", r.Offered), fmt.Sprintf("%d", r.Accepted), fmt.Sprintf("%d", r.Rejected),
		fmt.Sprintf("%.0f", r.IOPS), fmt.Sprintf("%.2f", r.Lat.P50), fmt.Sprintf("%.2f", r.Lat.P99),
	})
	out := fmt.Sprintf("== scenario %s (seed %d, admission %v) ==\n", r.Name, r.Seed, r.AdmissionOn)
	out += stats.FormatTable(header, rows)
	out += fmt.Sprintf("fairness(jain)=%.3f osd_admit=%d/%d sim_time=%.2fs\n",
		r.Fairness, r.OSDAccepted, r.OSDRejected, r.SimulatedTime.Seconds())
	return out
}
