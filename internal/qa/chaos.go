// Chaos testing: the thrasher. Where RunStress validates the data path
// under load and RunStressWithOutage validates quiescent fail/recover,
// RunChaos drives a randomized workload while a seeded fault schedule
// crashes OSD daemons mid-flight, partitions a client off the public
// network, and degrades disks — then proves the hard invariant: every
// acked write is readable afterwards, and the cluster converges to a clean
// scrub. Crashes are silent (the cluster map is not told); the heartbeat
// detector must notice and fail the OSD on its own, and clients must ride
// through on timeout/retry. The whole run is deterministic per seed:
// Fingerprint is bit-for-bit reproducible.
package qa

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/crush"
	"repro/internal/fault"
	"repro/internal/osd"
	"repro/internal/rng"
	"repro/internal/sim"
)

// ChaosConfig sizes a chaos run.
type ChaosConfig struct {
	OSD          osd.Config
	Clients      int
	OpsPerClient int
	// Pacing spaces client ops out so the workload spans the fault
	// schedule instead of finishing before the first crash.
	Pacing       sim.Time
	ImageSize    int64
	BlockSizes   []int64
	ReadFraction float64
	Nodes        int
	OSDsPerNode  int
	// CrashCycles is the number of crash->restart->recover sequences;
	// Partition adds a client partition window; DiskFaults adds slow-disk
	// and latent-read-error windows.
	CrashCycles int
	Partition   bool
	DiskFaults  bool
	// BitRot scatters that many silent single-copy corruptions across the
	// schedule. Every injection targets an object whose whole replica set
	// is up and clean, so a healthy peer always exists and the self-healing
	// invariant (detect and repair every corruption, never serve damaged
	// data) is checkable without caveats.
	BitRot int
	// Scrub runs the background scrub scheduler during the chaos phase
	// (deep scrubs, throttled, auto-repair) — the online detection path
	// for the injected rot.
	Scrub bool
	// Backend overrides the object-store backend on every OSD when
	// non-empty ("filestore" / "directstore").
	Backend string
	// Pool selects the redundancy policy ("repN" / "ecK+M"); empty keeps
	// the default two-way replication. MaxDown lets that many crash cycles
	// overlap (distinct victims) — set it to m for an RS(k,m) pool to prove
	// the pool rides through its full failure budget; 0 keeps the
	// sequential single-failure schedule.
	Pool    string
	MaxDown int
	Seed    uint64
}

// DefaultChaos returns the standard thrasher shape: a small AFCeph-profile
// cluster with two replicas, clients slow enough that the fault schedule
// lands mid-workload.
func DefaultChaos() ChaosConfig {
	return ChaosConfig{
		OSD:          osd.AFCeph().Config(),
		Clients:      4,
		OpsPerClient: 120,
		Pacing:       20 * sim.Millisecond,
		ImageSize:    64 << 20,
		BlockSizes:   []int64{4096, 8192, 32768},
		ReadFraction: 0.3,
		Nodes:        2,
		OSDsPerNode:  2,
		CrashCycles:  3,
		Partition:    true,
		DiskFaults:   true,
		BitRot:       3,
		Scrub:        true,
		Seed:         1,
	}
}

// ChaosResult summarizes a chaos run.
type ChaosResult struct {
	Writes, Reads  int
	ReadVerified   int // acked writes verified by the final readback
	ObjectsWritten int
	Retries        uint64 // client attempts resent after timeout/epoch change
	Crashes        int
	JournalReplays int
	DownsDetected  uint64 // failures noticed by the heartbeat monitor
	DegradedPGs    int
	Recovered      int // objects copied by recovery
	Repaired       int // objects healed by the final repair pass
	NetDropped     uint64
	// Self-healing accounting.
	BitRots       int    // corruptions actually injected
	RotDetected   int    // injections with a detection event (scrub finding or read-repair)
	RotRepaired   int    // injections with a repair event after injection
	RotVacated    int    // injections erased by client overwrites before any scrub saw them
	ReadRepairs   uint64 // primary reads served from a replica after damage
	EIOs          uint64 // reads failed for want of any healthy copy
	ScrubFindings uint64 // background scrub findings
	ScrubRepairs  uint64 // copies healed by background auto-repair
	SimulatedTime sim.Time
	Violations    []string
	// Fingerprint digests the run's observable history; identical seeds
	// must produce identical fingerprints.
	Fingerprint uint64
}

// Failed reports whether any invariant was violated.
func (r *ChaosResult) Failed() bool { return len(r.Violations) > 0 }

func (r *ChaosResult) violate(format string, args ...interface{}) {
	if len(r.Violations) < 20 {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
}

type chaosClient struct {
	cl    *cluster.Client
	bd    *cluster.BlockDevice
	model map[int64]uint64 // block offset -> stamp of last acked write
}

// RunChaos executes the thrasher and checks every invariant.
func RunChaos(cfg ChaosConfig) *ChaosResult {
	p := testbedParams(cfg.OSD, cfg.Nodes, cfg.OSDsPerNode, cfg.Backend, cfg.Seed)
	if cfg.Pool != "" {
		p.Pool = cfg.Pool
	}
	// The robustness layer: clients retry, heartbeats detect.
	p.ClientOpTimeout = 50 * sim.Millisecond
	p.HeartbeatInterval = 25 * sim.Millisecond
	p.HeartbeatGrace = 100 * sim.Millisecond
	if cfg.Scrub {
		// Deep scrubs throttled to a fraction of device bandwidth, two PGs
		// at a time, healing what they find — the online detection path.
		p.Scrub = cluster.ScrubParams{
			Interval:         50 * sim.Millisecond,
			BytesPerSec:      512 << 20,
			MaxConcurrentPGs: 2,
			AutoRepair:       true,
			SettleDelay:      10 * sim.Millisecond,
		}
	}
	c := cluster.New(p)
	res := &ChaosResult{}
	touched := make(map[string]bool)

	// Client load. During the chaos phase reads are not verified against
	// the model: an ack guarantees durability (journaled on the acting
	// set), not filestore visibility, and a failed-over or slow-disk read
	// can legitimately observe the pre-apply state. The authoritative
	// check is the post-recovery readback below.
	clients := make([]*chaosClient, cfg.Clients)
	workers := sim.NewWaitGroup(c.K)
	for ci := 0; ci < cfg.Clients; ci++ {
		ci := ci
		img := fmt.Sprintf("chaos%d", ci)
		cl := c.NewClient()
		cc := &chaosClient{cl: cl, bd: cl.OpenDevice(img, cfg.ImageSize), model: make(map[int64]uint64)}
		clients[ci] = cc
		r := rng.New(cfg.Seed*1000003 + uint64(ci)*7907 + 11)
		workers.Add(1)
		c.K.Go("chaos."+img, func(pp *sim.Proc) {
			defer workers.Done()
			var written []int64
			stamp := uint64(ci)<<32 + 1
			for op := 0; op < cfg.OpsPerClient; op++ {
				bs := cfg.BlockSizes[r.Intn(len(cfg.BlockSizes))]
				blocks := cfg.ImageSize / bs
				off := r.Int63n(blocks) * bs
				if r.Float64() < cfg.ReadFraction {
					if len(written) > 0 && r.Float64() < 0.8 {
						off = written[r.Intn(len(written))]
						if off+bs > cfg.ImageSize {
							off = cfg.ImageSize - bs
						}
					}
					got, _ := cc.bd.ReadAt(pp, off, bs)
					res.Reads++
					// No acked read may ever return damaged data. Legitimate
					// stamps from this image carry this client's index in the
					// high word and a counter no later than the last issued;
					// rot XORs the low word into the billions.
					if got != 0 && (got>>32 != uint64(ci) || got&0xffffffff > stamp&0xffffffff) {
						res.violate("client %d read damaged data at off=%d: stamp %#x", ci, off, got)
					}
				} else {
					stamp++
					cc.bd.WriteAt(pp, off, bs, stamp)
					if _, seen := cc.model[off]; !seen {
						written = append(written, off)
					}
					cc.model[off] = stamp
					res.Writes++
					for b := off; b < off+bs; b += cluster.ObjectSize {
						touched[fmt.Sprintf("rbd.%s.%d", img, b/cluster.ObjectSize)] = true
					}
					if off/cluster.ObjectSize != (off+bs-1)/cluster.ObjectSize {
						touched[fmt.Sprintf("rbd.%s.%d", img, (off+bs-1)/cluster.ObjectSize)] = true
					}
				}
				if cfg.Pacing > 0 {
					pp.Sleep(cfg.Pacing)
				}
			}
		})
	}

	// The fault driver executes the seeded schedule. CycleGap leaves room
	// for heartbeat detection (grace + interval) before each restart.
	plan := fault.Plan{
		OSDs:        cfg.Nodes * cfg.OSDsPerNode,
		Clients:     cfg.Clients,
		Start:       20 * sim.Millisecond,
		CrashCycles: cfg.CrashCycles,
		CycleGap:    200 * sim.Millisecond,
		Partition:   cfg.Partition,
		DiskFaults:  cfg.DiskFaults,
		BitRotCount: cfg.BitRot,
		MaxDown:     cfg.MaxDown,
	}
	sched := fault.Generate(plan, cfg.Seed^0x5eedfa51)
	type rotInject struct {
		oid string
		osd int
		at  sim.Time
		// rot snapshots the stamp of every extent the corruption hit, so
		// the final check can prove an undetected injection was vacated by
		// client overwrites (every rotten extent's stamp moved on).
		rot map[int64]uint64
	}
	var injected []rotInject
	rotRng := rng.New(cfg.Seed ^ 0xb17b07)
	recWG := sim.NewWaitGroup(c.K)
	driver := sim.NewWaitGroup(c.K)
	driver.Add(1)
	c.K.Go("chaos.driver", func(pp *sim.Proc) {
		defer driver.Done()
		for _, op := range sched {
			if op.At > pp.Now() {
				pp.Sleep(op.At - pp.Now())
			}
			switch op.Kind {
			case fault.Crash:
				// Silent: only the daemon dies. The map learns from the
				// heartbeat monitor.
				c.OSDs()[op.Target].Crash()
				res.Crashes++
			case fault.Restart:
				if c.OSDs()[op.Target].Crashed() {
					c.RestartOSDIn(pp, op.Target)
				}
			case fault.Recover:
				if !c.Down(op.Target) {
					res.violate("heartbeats never marked crashed osd.%d down", op.Target)
					continue
				}
				if cfg.MaxDown > 1 {
					// Overlapping schedules must keep faulting on time: a
					// long rebuild run inline would delay the next lane's
					// crash past its own restart, collapsing the down window
					// before heartbeats can detect it. Recover concurrently;
					// the controller waits for stragglers.
					id := op.Target
					recWG.Add(1)
					c.K.Go(fmt.Sprintf("chaos.recover.osd%d", id), func(rp *sim.Proc) {
						defer recWG.Done()
						st := c.RecoverOSDIn(rp, id)
						res.Recovered += st.ObjectsCopied
						res.JournalReplays += st.JournalReplays
						res.DegradedPGs += st.DegradedPGs
					})
					continue
				}
				st := c.RecoverOSDIn(pp, op.Target)
				res.Recovered += st.ObjectsCopied
				res.JournalReplays += st.JournalReplays
				res.DegradedPGs += st.DegradedPGs
			case fault.PartitionClient:
				ep := clients[op.Target].cl.Endpoint()
				for _, o := range c.OSDs() {
					c.Net.Partition(ep, o.Endpoint())
				}
			case fault.HealClient:
				ep := clients[op.Target].cl.Endpoint()
				for _, o := range c.OSDs() {
					c.Net.Heal(ep, o.Endpoint())
				}
			case fault.SlowDisk:
				c.DiskFaults(op.Target).SetSlow(op.Factor)
			case fault.ReadErrors:
				c.DiskFaults(op.Target).SetReadErrors(op.Factor, 5*sim.Millisecond)
			case fault.ClearDisk:
				c.DiskFaults(op.Target).Clear()
			case fault.BitRot:
				// The schedule's target is only a hint; re-pick against live
				// placement so the whole replica set is up and clean (one
				// healthy peer must survive the corruption). Scanning the
				// sorted name space from a seeded start keeps the choice
				// deterministic yet varied.
				if oid, victim, ok := pickRotVictim(c, rotRng); ok {
					c.OSDs()[victim].Store().CorruptObject(oid)
					inj := rotInject{oid: oid, osd: victim, at: pp.Now(), rot: map[int64]uint64{}}
					if st, ok := c.OSDs()[victim].Store().ExportObject(oid); ok {
						for off := range st.Rot { //afvet:allow determinism map-to-map copy is order-insensitive
							inj.rot[off] = st.Stamps[off]
						}
					}
					injected = append(injected, inj)
					res.BitRots++
				}
			}
		}
	})

	// The controller closes the run: wait for load and schedule, heal any
	// leftover faults, reconcile divergence left by recoveries that raced
	// ongoing writes (a quiescent repair pass), settle, stop heartbeats.
	c.K.Go("chaos.controller", func(pp *sim.Proc) {
		workers.Wait(pp)
		driver.Wait(pp)
		recWG.Wait(pp)
		c.Net.HealAll()
		for id := range c.OSDs() {
			if c.OSDs()[id].Crashed() {
				c.RestartOSDIn(pp, id)
			}
		}
		for id := range c.OSDs() {
			if c.Down(id) {
				st := c.RecoverOSDIn(pp, id)
				res.Recovered += st.ObjectsCopied
				res.JournalReplays += st.JournalReplays
				res.DegradedPGs += st.DegradedPGs
			}
		}
		c.StopScrub()            // in-flight PG scrubs drain during the settle below
		pp.Sleep(2 * sim.Second) // drain in-flight applies
		res.Repaired = c.RepairIn(pp)
		c.StopHeartbeats()
	})
	c.K.Run(sim.Forever)

	res.SimulatedTime = c.K.Now()
	res.ObjectsWritten = len(touched)
	res.DownsDetected = c.DownsDetected()
	res.NetDropped = c.Net.Dropped.Value()
	for _, cc := range clients {
		res.Retries += cc.cl.Retries()
		res.EIOs += cc.cl.EIOs()
	}
	for _, o := range c.OSDs() {
		res.ReadRepairs += o.Metrics().ReadRepairs.Value()
	}
	res.ScrubFindings = c.ScrubStats().Findings.Value()
	res.ScrubRepairs = c.ScrubStats().Repairs.Value()

	// Self-healing invariants: no damage survives the run, and every
	// injected corruption was detected (scrub finding or read-repair) and
	// repaired after its injection instant. The final RepairIn's scrub pass
	// backstops detection, so an injection the online paths missed still
	// counts — but only through the same integrity log everyone else uses.
	// One legitimate escape: a client can overwrite every rotten extent
	// before any scrub reads the copy, erasing the damage along with all
	// evidence of it. Such an injection is counted as vacated, but only on
	// proof — the copy must be clean now and every rotten extent's stamp
	// must have moved past its at-injection value.
	events := c.IntegrityEvents()
	for _, inj := range injected {
		detected, repaired := false, false
		for _, ev := range events {
			if ev.OID != inj.oid || ev.At < inj.at {
				continue
			}
			switch ev.Kind {
			case cluster.IntegrityFinding, cluster.IntegrityReadRepair:
				detected = true
			case cluster.IntegrityRepaired:
				repaired = true
			}
		}
		if !detected && !repaired {
			if st, ok := c.OSDs()[inj.osd].Store().ExportObject(inj.oid); ok && !st.Damaged && len(inj.rot) > 0 {
				vacated := true
				for off, stamp := range inj.rot { //afvet:allow determinism all-must-hold check is order-insensitive
					if st.Stamps[off] == stamp {
						vacated = false
						break
					}
				}
				if vacated {
					res.RotVacated++
					continue
				}
			}
		}
		if detected {
			res.RotDetected++
		} else {
			res.violate("injected corruption of %s on osd.%d never detected", inj.oid, inj.osd)
		}
		if repaired {
			res.RotRepaired++
		} else {
			res.violate("injected corruption of %s on osd.%d never repaired", inj.oid, inj.osd)
		}
	}
	for id, o := range c.OSDs() {
		for _, oid := range o.Store().ObjectNames() {
			if o.Store().ObjectDamaged(oid) {
				res.violate("osd.%d still holds damaged copy of %s after repair", id, oid)
			}
		}
	}

	// Drain and consistency invariants.
	for _, oid := range sortedOIDs(touched) {
		holders := 0
		for _, o := range c.OSDs() {
			if o.FileStore().ObjectVersion(oid) > 0 {
				holders++
			}
		}
		if holders != c.PoolWidth() {
			res.violate("object %s on %d OSDs, want %d", oid, holders, c.PoolWidth())
		}
	}
	for id, o := range c.OSDs() {
		if ops, bytes := o.Store().PendingOps(), o.Store().PendingBytes(); ops != 0 || bytes != 0 {
			res.violate("osd.%d write-ahead state not drained: %d ops, %d bytes", id, ops, bytes)
		}
		if n := o.Dispatcher().QueueLen() + o.Dispatcher().PendingLen(); n != 0 {
			res.violate("osd.%d op queue not drained: %d items", id, n)
		}
	}
	for _, s := range c.ScrubPGLogs() {
		res.violate("pg log: %s", s)
	}
	for _, inc := range c.ScrubAll() {
		res.violate("scrub: %s %s", inc.OID, inc.Detail)
	}

	// The authoritative invariant: every acked write reads back with the
	// stamp the client last wrote, after all faults are healed.
	c.K.Go("chaos.readback", func(pp *sim.Proc) {
		for ci, cc := range clients {
			offs := make([]int64, 0, len(cc.model))
			for off := range cc.model { //afvet:allow determinism keys are sorted before use
				offs = append(offs, off)
			}
			sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
			for _, off := range offs {
				got, exists := cc.bd.ReadAt(pp, off, 4096)
				if !exists || got != cc.model[off] {
					res.violate("client %d lost acked write at off=%d: stamp %d, want %d (exists=%v)",
						ci, off, got, cc.model[off], exists)
					continue
				}
				res.ReadVerified++
			}
		}
	})
	c.K.Run(sim.Forever)

	res.Fingerprint = res.fingerprint(c, touched)
	return res
}

// pickRotVictim selects a (object, OSD) pair for bit-rot injection such
// that detection and repair stay possible after the corruption: every *up*
// member's copy must be clean, and enough clean copies must survive the
// hit to rebuild it — strictly more than the policy's DataShards (so all
// replicas for the two-way replicated QA pool, at least k+1 shards for an
// EC pool riding through concurrent outages). The sorted name space is
// scanned from a seeded start for deterministic variety; the victim copy
// is drawn from the up members. Returns ok=false when nothing qualifies
// (e.g. the whole window is degraded).
func pickRotVictim(c *cluster.Cluster, r *rng.Rand) (string, int, bool) {
	names := map[string]bool{}
	for _, o := range c.OSDs() {
		for _, n := range o.Store().ObjectNames() {
			names[n] = true
		}
	}
	sorted := sortedOIDs(names)
	if len(sorted) == 0 {
		return "", -1, false
	}
	start := r.Intn(len(sorted))
	for k := 0; k < len(sorted); k++ {
		oid := sorted[(start+k)%len(sorted)]
		pg := crush.ObjectToPG(oid, c.Params.PGs)
		set := c.Map().PGToOSDs(pg, c.PoolWidth())
		eligible := true
		var up []int
		for _, id := range set {
			o := c.OSDs()[id]
			if c.Down(id) || o.Crashed() {
				continue
			}
			if o.Store().ObjectVersion(oid) == 0 || o.Store().ObjectDamaged(oid) {
				eligible = false
				break
			}
			up = append(up, id)
		}
		if !eligible || len(up) <= c.Policy().DataShards() {
			continue
		}
		return oid, up[r.Intn(len(up))], true
	}
	return "", -1, false
}

// fingerprint digests the observable run history for bit-for-bit
// reproducibility checks.
func (r *ChaosResult) fingerprint(c *cluster.Cluster, touched map[string]bool) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mixs := func(s string) {
		for i := 0; i < len(s); i++ {
			mix(uint64(s[i]))
		}
	}
	mix(uint64(r.SimulatedTime))
	mix(uint64(r.Writes))
	mix(uint64(r.Reads))
	mix(uint64(r.ReadVerified))
	mix(r.Retries)
	mix(uint64(r.Crashes))
	mix(uint64(r.JournalReplays))
	mix(r.DownsDetected)
	mix(uint64(r.DegradedPGs))
	mix(uint64(r.Recovered))
	mix(uint64(r.Repaired))
	mix(r.NetDropped)
	mix(uint64(r.BitRots))
	mix(uint64(r.RotDetected))
	mix(uint64(r.RotRepaired))
	mix(uint64(r.RotVacated))
	mix(r.ReadRepairs)
	mix(r.EIOs)
	mix(r.ScrubFindings)
	mix(r.ScrubRepairs)
	mix(uint64(len(r.Violations)))
	for _, o := range c.OSDs() {
		m := o.Metrics()
		mix(m.WriteOps.Value())
		mix(m.ReadOps.Value())
		mix(m.RepOps.Value())
		mix(m.AcksSent.Value())
		mix(m.Crashes.Value())
		mix(m.JournalReplays.Value())
	}
	for _, oid := range sortedOIDs(touched) {
		mixs(oid)
		for _, o := range c.OSDs() {
			mix(o.FileStore().ObjectVersion(oid))
		}
	}
	return h
}
