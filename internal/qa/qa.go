// Package qa is the reproduction's Teuthology: randomized block-storage
// stress tests with invariant checking. The paper validated AFCeph's
// stability with Ceph's QA suite ("we verified the stability using the
// Ceph QA suite ... we passed RBD test"); this package plays the same role
// for the model — any optimization profile must preserve storage semantics
// under randomized concurrent load.
//
// Checked invariants:
//
//  1. Read-your-write: every read returns the stamp of the most recent
//     acked write to that extent (per-client images, so there are no
//     cross-client races to reason about).
//  2. Completion: every submitted op completes.
//  3. Replication: every written object ends up on exactly PoolWidth
//     OSDs' filestores.
//  4. Drain: after quiescing, the backend's write-ahead state (journal
//     ring or KV WAL) is fully trimmed, filestore throttles fully released
//     and OP queues are empty.
package qa

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/osd"
	"repro/internal/rng"
	"repro/internal/sim"
)

// StressConfig sizes a randomized stress run.
type StressConfig struct {
	// OSD is every OSD's configuration.
	OSD osd.Config
	// Clients is the number of concurrent clients, each with its own image.
	Clients int
	// OpsPerClient is the randomized op count per client.
	OpsPerClient int
	// ImageSize is each client's image size.
	ImageSize int64
	// BlockSizes are chosen uniformly per op (block-aligned offsets).
	BlockSizes []int64
	// ReadFraction is the probability an op is a read.
	ReadFraction float64
	// Nodes / OSDsPerNode shrink the cluster for fast runs.
	Nodes       int
	OSDsPerNode int
	// Backend overrides the object-store backend on every OSD when
	// non-empty ("filestore" / "directstore").
	Backend string
	Seed    uint64
}

// DefaultStress returns a moderate randomized workload.
func DefaultStress(cfg osd.Config) StressConfig {
	return StressConfig{
		OSD:          cfg,
		Clients:      6,
		OpsPerClient: 120,
		ImageSize:    64 << 20,
		BlockSizes:   []int64{4096, 8192, 32768},
		ReadFraction: 0.4,
		Nodes:        2,
		OSDsPerNode:  2,
		Seed:         1,
	}
}

// Result summarizes a stress run.
type Result struct {
	Writes, Reads  int
	ReadVerified   int
	ObjectsWritten int
	// Recovered counts objects copied by recovery in outage-cycle runs.
	Recovered     int
	SimulatedTime sim.Time
	Violations    []string
}

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

func (r *Result) violate(format string, args ...interface{}) {
	if len(r.Violations) < 20 {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
}

// testbedParams is the small QA testbed shared by the stress and chaos
// runs: OSD-only profiles on community host settings (tcmalloc, Nagle on),
// read-your-write stamps on, and backend overriding OSD.Backend when set.
func testbedParams(osdCfg osd.Config, nodes, osdsPerNode int, backend string, seed uint64) cluster.Params {
	p := cluster.DefaultParams()
	p.OSD = osdCfg
	p.OSD.FStore.VerifyData = true
	if backend != "" {
		p.OSD.Backend = backend
	}
	p.OSDNodes = nodes
	p.OSDsPerNode = osdsPerNode
	p.SSDsPerOSD = 2
	p.PGs = 128
	p.Sustained = false
	p.Seed = seed
	return p
}

// buildCluster constructs the stress testbed.
func buildCluster(cfg StressConfig) *cluster.Cluster {
	return cluster.New(testbedParams(cfg.OSD, cfg.Nodes, cfg.OSDsPerNode, cfg.Backend, cfg.Seed))
}

// runPhase drives one randomized client wave to completion and records the
// objects it wrote into touched. It returns the completed op count.
func runPhase(c *cluster.Cluster, cfg StressConfig, res *Result, phase int, touched map[string]bool) int {
	done := 0
	for ci := 0; ci < cfg.Clients; ci++ {
		ci := ci
		imgName := fmt.Sprintf("stress%d.%d", phase, ci)
		cl := c.NewClient()
		bd := cl.OpenDevice(imgName, cfg.ImageSize)
		r := rng.New(cfg.Seed + uint64(phase)*65537 + uint64(ci)*7907 + 3)
		c.K.Go("stress."+imgName, func(pp *sim.Proc) {
			// model: block offset -> stamp of last acked write.
			model := make(map[int64]uint64)
			var written []int64 // offsets with model entries, for sampling
			stamp := uint64(ci)<<32 + 1
			for op := 0; op < cfg.OpsPerClient; op++ {
				bs := cfg.BlockSizes[r.Intn(len(cfg.BlockSizes))]
				blocks := cfg.ImageSize / bs
				off := r.Int63n(blocks) * bs
				if r.Float64() < cfg.ReadFraction {
					// Bias reads toward written extents so the model check
					// actually fires.
					if len(written) > 0 && r.Float64() < 0.8 {
						off = written[r.Intn(len(written))]
						if off+bs > cfg.ImageSize {
							off = cfg.ImageSize - bs
						}
					}
					got, _ := bd.ReadAt(pp, off, bs)
					// Invariant 1: read-your-write. The filestore stamps
					// extents by their exact start offset, so the model
					// tracks the last write at each offset.
					res.Reads++
					if want, ok := model[off]; ok {
						if got != want {
							res.violate("client %d read off=%d bs=%d: stamp %d, want %d",
								ci, off, bs, got, want)
						} else {
							res.ReadVerified++
						}
					}
				} else {
					stamp++
					bd.WriteAt(pp, off, bs, stamp)
					if _, seen := model[off]; !seen {
						written = append(written, off)
					}
					model[off] = stamp
					res.Writes++
					// Track touched objects for the replication check.
					for b := off; b < off+bs; b += cluster.ObjectSize {
						touched[fmt.Sprintf("rbd.%s.%d", imgName, b/cluster.ObjectSize)] = true
					}
					if off/cluster.ObjectSize != (off+bs-1)/cluster.ObjectSize {
						touched[fmt.Sprintf("rbd.%s.%d", imgName, (off+bs-1)/cluster.ObjectSize)] = true
					}
				}
				done++
			}
		})
	}
	c.K.Run(sim.Forever)
	return done
}

// checkInvariants verifies replication, drain and scrub state after the
// workload has quiesced.
func checkInvariants(c *cluster.Cluster, cfg StressConfig, res *Result, touched map[string]bool) {
	// Let in-flight filestore applies drain (acks only guarantee
	// journaling).
	c.K.Go("settle", func(pp *sim.Proc) { pp.Sleep(2 * sim.Second) })
	c.K.Run(sim.Forever)
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
	res.ObjectsWritten = len(touched)

	for _, o := range c.OSDs() {
		if ops, bytes := o.Store().PendingOps(), o.Store().PendingBytes(); ops != 0 || bytes != 0 {
			res.violate("osd write-ahead state not drained: %d ops, %d bytes", ops, bytes)
		}
		if avail, cap := o.FsThrottle().Available(), o.FsThrottle().Capacity(); avail != cap {
			res.violate("filestore throttle leaked: %d/%d", avail, cap)
		}
		if n := o.Dispatcher().QueueLen() + o.Dispatcher().PendingLen(); n != 0 {
			res.violate("op queue not drained: %d items", n)
		}
	}
	if v := c.ScrubPGLogs(); len(v) != 0 {
		for _, s := range v {
			res.violate("pg log: %s", s)
		}
	}
}

// RunStress executes the randomized workload and checks every invariant.
func RunStress(cfg StressConfig) *Result {
	c := buildCluster(cfg)
	res := &Result{}
	touched := make(map[string]bool)
	done := runPhase(c, cfg, res, 0, touched)
	res.SimulatedTime = c.K.Now()
	if want := cfg.Clients * cfg.OpsPerClient; done != want {
		res.violate("completed %d of %d ops (processes wedged)", done, want)
	}
	checkInvariants(c, cfg, res, touched)
	return res
}

// RunStressWithOutage runs a wave of load, fails an OSD, runs a second
// (degraded) wave, recovers the OSD, and checks that the cluster converges
// to full consistency — the QA analogue of Teuthology's thrashing tests.
func RunStressWithOutage(cfg StressConfig, failID int) *Result {
	c := buildCluster(cfg)
	res := &Result{}
	touched := make(map[string]bool)

	runPhase(c, cfg, res, 0, touched)
	// Quiesce applies before failing (no in-flight ops may target the
	// victim).
	c.K.Go("settle0", func(pp *sim.Proc) { pp.Sleep(2 * sim.Second) })
	c.K.Run(sim.Forever)

	c.FailOSD(failID)
	runPhase(c, cfg, res, 1, touched)
	c.K.Go("settle1", func(pp *sim.Proc) { pp.Sleep(2 * sim.Second) })
	c.K.Run(sim.Forever)

	st := c.RecoverOSD(failID)
	res.Recovered = st.ObjectsCopied
	res.SimulatedTime = c.K.Now()

	checkInvariants(c, cfg, res, touched)
	for _, inc := range c.ScrubAll() {
		res.violate("scrub: %s %s", inc.OID, inc.Detail)
	}
	return res
}

// sortedOIDs returns the touched-object set as a sorted slice. Invariant
// checks and hashes iterate object sets through this helper so their
// report order never inherits map iteration order.
func sortedOIDs(touched map[string]bool) []string {
	oids := make([]string, 0, len(touched))
	for oid := range touched { //afvet:allow determinism keys are sorted before use
		oids = append(oids, oid)
	}
	sort.Strings(oids)
	return oids
}
