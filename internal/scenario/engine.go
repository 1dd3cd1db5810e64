package scenario

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
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

// Bucket is the outcome of one measurement bucket: a tenant, an SLO class
// or the whole cluster. Each bucket's counters are incremented
// independently of the others.
type Bucket struct {
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

// TenantResult is one tenant's aggregate outcome.
type TenantResult struct {
	Name    string
	Class   string
	Clients int
	Bucket
}

// ClassResult aggregates every tenant of one SLO class. The breakdown
// telescopes: summing any column over classes reproduces the cluster total
// exactly.
type ClassResult struct {
	Class string
	Bucket
}

// Result is a full scenario outcome.
type Result struct {
	Name        string
	Seed        uint64
	AdmissionOn bool
	RuntimeSec  float64 // measured window, after scaling
	Tenants     []TenantResult
	Classes     []ClassResult
	// Bucket is the cluster totals (independent counters, not sums of the
	// above).
	Bucket
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

// bucket reads the counters out, with IOPS over a measured window of secs.
func (a *agg) bucket(secs float64) Bucket {
	return Bucket{
		Offered:  a.offered.Value(),
		Accepted: a.accepted.Value(),
		Rejected: a.rejected.Value(),
		Measured: a.measured.Value(),
		IOPS:     float64(a.measured.Value()) / secs,
		Lat:      a.hist.SnapshotMillis(),
	}
}

// register publishes the counters as perf subsystem name.
func (a *agg) register(reg *metrics.Registry, name string) {
	s := reg.Sub(name)
	s.Counter("offered", &a.offered)
	s.Counter("accepted", &a.accepted)
	s.Counter("rejected", &a.rejected)
	s.Counter("measured", &a.measured)
	s.Histogram("latency", a.hist)
}

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
		levels := [...]*agg{tAggs[ti], cAggs[t.Class], total} // the buckets each op counts in
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
					for _, a := range levels {
						a.offered.Inc()
					}
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
						for _, a := range levels {
							if !admitted {
								a.rejected.Inc()
								continue
							}
							a.accepted.Inc()
							if measured {
								a.measured.Inc()
								a.hist.Record(int64(p.Now() - rec.at))
							}
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
	secs := runtime.Seconds()
	for ti := range tenants {
		t := &tenants[ti]
		res.Tenants = append(res.Tenants, TenantResult{Name: t.Name, Class: t.Class, Clients: t.Clients, Bucket: tAggs[ti].bucket(secs)})
	}
	for _, cls := range classOrder {
		res.Classes = append(res.Classes, ClassResult{Class: cls, Bucket: cAggs[cls].bucket(secs)})
	}
	res.Bucket = total.bucket(secs)
	res.OSDAccepted, res.OSDRejected = c.AdmissionTotals()
	shares := make([]float64, len(res.Tenants))
	for i, t := range res.Tenants {
		shares[i] = float64(t.Measured)
	}
	res.Fairness = stats.JainFairness(shares)

	if opt.Perf {
		reg := c.Perf()
		for ti := range tenants {
			tAggs[ti].register(reg, "scenario.tenant."+tenants[ti].Name)
		}
		for _, cls := range classOrder {
			cAggs[cls].register(reg, "scenario.class."+cls)
		}
		total.register(reg, "scenario.total")
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
// FNV-1a hash of their little-endian bytes (strings as their bytes); the
// differential determinism tests compare fingerprints across
// host-parallelism settings.
func (r *Result) Fingerprint() uint64 { //afvet:allow unused qa/differential_test.go and engine_test.go compare runs through it
	var b []byte
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	bucket := func(k Bucket) {
		for _, v := range []uint64{k.Offered, k.Accepted, k.Rejected, k.Measured, k.Lat.Count} {
			u64(v)
		}
		for _, v := range []float64{k.Lat.Mean, k.Lat.P50, k.Lat.P99, k.Lat.Max} {
			u64(math.Float64bits(v))
		}
	}
	b = append(b, r.Name...)
	u64(r.Seed)
	for _, t := range r.Tenants {
		b = append(append(b, t.Name...), t.Class...)
		bucket(t.Bucket)
	}
	for _, c := range r.Classes {
		b = append(b, c.Class...)
		bucket(c.Bucket)
	}
	bucket(r.Bucket)
	u64(r.OSDAccepted)
	u64(r.OSDRejected)
	u64(math.Float64bits(r.Fairness))
	u64(uint64(r.SimulatedTime))
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// Table renders the per-tenant and per-class breakdown as text.
func (r *Result) Table() string {
	header := []string{"tenant", "class", "offered", "accepted", "rejected", "iops", "p50(ms)", "p99(ms)"}
	var rows [][]string
	row := func(name, class string, b Bucket) {
		rows = append(rows, []string{
			name, class,
			fmt.Sprintf("%d", b.Offered), fmt.Sprintf("%d", b.Accepted), fmt.Sprintf("%d", b.Rejected),
			fmt.Sprintf("%.0f", b.IOPS), fmt.Sprintf("%.2f", b.Lat.P50), fmt.Sprintf("%.2f", b.Lat.P99),
		})
	}
	for _, t := range r.Tenants {
		row(t.Name, t.Class, t.Bucket)
	}
	for _, c := range r.Classes {
		row("class:"+c.Class, "", c.Bucket)
	}
	row("TOTAL", "", r.Bucket)
	out := fmt.Sprintf("== scenario %s (seed %d, admission %v) ==\n", r.Name, r.Seed, r.AdmissionOn)
	out += stats.FormatTable(header, rows)
	out += fmt.Sprintf("fairness(jain)=%.3f osd_admit=%d/%d sim_time=%.2fs\n",
		r.Fairness, r.OSDAccepted, r.OSDRejected, r.SimulatedTime.Seconds())
	return out
}
