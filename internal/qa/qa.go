// Package qa is the reproduction's Teuthology: randomized block-storage
// stress tests with invariant checking. The paper validated AFCeph's
// stability with Ceph's QA suite ("we verified the stability using the
// Ceph QA suite ... we passed RBD test"); this package plays the same role
// for the model — any optimization profile must preserve storage semantics
// under randomized concurrent load.
//
// Every run — RunStress, RunStressWithOutage and RunChaos — drives the
// same randomized client loop and, once quiesced, the same drain checker,
// so each checks:
//
//  1. Reads: every read is checked as it completes. Stress reads must
//     return the stamp of the most recent acked write to that extent
//     (per-client images, so there are no cross-client races to reason
//     about). Chaos reads only check that a stamp is legitimate — written
//     by this client, not damaged — not that it is the freshest, since a
//     failed-over read may observe the pre-apply state; RunChaos verifies
//     every acked write by a readback after recovery.
//  2. Completion: every submitted op completes.
//  3. Replication: every written object ends up on exactly PoolWidth
//     OSDs' filestores.
//  4. Drain: the backend's write-ahead state (journal ring or KV WAL) is
//     fully trimmed, filestore throttles fully released, OP queues empty
//     and PG logs contiguous.
//  5. Scrub: a deep scrub of every object finds no inconsistency.
//
// RunChaos adds heartbeat detection of every crash and the self-healing
// invariants for injected bit rot.
package qa

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/osd"
	"repro/internal/rng"
	"repro/internal/sim"
)

// StressConfig sizes a randomized stress run, and the load of a chaos run.
type StressConfig struct {
	// Cluster is the testbed; its Seed also seeds the workload.
	Cluster cluster.Params
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
}

// DefaultStress returns a moderate randomized workload on the QA testbed
// running cfg.
func DefaultStress(cfg osd.Config) StressConfig {
	return StressConfig{
		Cluster:      Testbed(cfg),
		Clients:      6,
		OpsPerClient: 120,
		ImageSize:    64 << 20,
		BlockSizes:   []int64{4096, 8192, 32768},
		ReadFraction: 0.4,
	}
}

// Result summarizes a stress run; ChaosResult embeds it.
type Result struct {
	Writes, Reads int
	// ReadVerified counts reads that matched the model (stress) or acked
	// writes the final readback verified (chaos).
	ReadVerified   int
	ObjectsWritten int
	// Recovered counts objects copied by recovery in outage and chaos runs.
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

// Testbed is the small QA cluster shared by the stress and chaos runs:
// 2 nodes x 2 OSDs of 2 clean SSDs each, rep2, seed 1, running osdCfg with
// read-your-write stamps on. The OSD-only profiles run on community host
// settings (tcmalloc, Nagle on).
func Testbed(osdCfg osd.Config) cluster.Params {
	p := cluster.DefaultParams()
	p.OSD = osdCfg
	p.OSD.FStore.VerifyData = true
	p.OSDNodes = 2
	p.OSDsPerNode = 2
	p.SSDsPerOSD = 2
	p.PGs = 128
	p.Sustained = false
	return p
}

// client is one randomized block client on its own image. Its model maps
// each written block offset to the stamp of its last acked write.
type client struct {
	id      int
	cl      *cluster.Client
	bd      *cluster.BlockDevice
	model   map[int64]uint64
	written []int64 // offsets with model entries, for sampling reads
	stamp   uint64  // last stamp issued
	done    int     // ops completed
}

// load is the client side of one run: every client it started, the
// objects they wrote and the Result they count into.
type load struct {
	c       *cluster.Cluster
	cfg     StressConfig
	res     *Result
	touched map[string]bool
	clients []*client
	running *sim.WaitGroup // client op loops still running
}

func newLoad(c *cluster.Cluster, cfg StressConfig, res *Result) *load {
	return &load{c: c, cfg: cfg, res: res, touched: make(map[string]bool), running: sim.NewWaitGroup(c.K)}
}

// start opens image img on client id's own connection and runs
// cfg.OpsPerClient randomized ops on it in a process of its own, drawing
// from a stream seeded with seed and sleeping pacing after each op. Its
// stamps carry id in the high word. Every read's stamp goes through check.
func (l *load) start(id int, img string, seed uint64, pacing sim.Time, check func(cc *client, off, bs int64, got uint64)) {
	cl := l.c.NewClient()
	cc := &client{id: id, cl: cl, bd: cl.OpenDevice(img, l.cfg.ImageSize), model: make(map[int64]uint64), stamp: uint64(id)<<32 + 1}
	l.clients = append(l.clients, cc)
	r := rng.New(seed)
	cfg, res := l.cfg, l.res
	l.running.Add(1)
	l.c.K.Go("qa."+img, func(pp *sim.Proc) {
		defer l.running.Done()
		for op := 0; op < cfg.OpsPerClient; op++ {
			bs := cfg.BlockSizes[r.Intn(len(cfg.BlockSizes))]
			blocks := cfg.ImageSize / bs
			off := r.Int63n(blocks) * bs
			if r.Float64() < cfg.ReadFraction {
				// Bias reads toward written extents so the read check
				// actually fires.
				if len(cc.written) > 0 && r.Float64() < 0.8 {
					off = cc.written[r.Intn(len(cc.written))]
					if off+bs > cfg.ImageSize {
						off = cfg.ImageSize - bs
					}
				}
				got, _ := cc.bd.ReadAt(pp, off, bs)
				res.Reads++
				check(cc, off, bs, got)
			} else {
				cc.stamp++
				cc.bd.WriteAt(pp, off, bs, cc.stamp)
				if _, seen := cc.model[off]; !seen {
					cc.written = append(cc.written, off)
				}
				cc.model[off] = cc.stamp
				res.Writes++
				// Track touched objects for the replication check.
				for b := off; b < off+bs; b += cluster.ObjectSize {
					l.touched[fmt.Sprintf("rbd.%s.%d", img, b/cluster.ObjectSize)] = true
				}
				if off/cluster.ObjectSize != (off+bs-1)/cluster.ObjectSize {
					l.touched[fmt.Sprintf("rbd.%s.%d", img, (off+bs-1)/cluster.ObjectSize)] = true
				}
			}
			cc.done++
			if pacing > 0 {
				pp.Sleep(pacing)
			}
		}
	})
}

// checkDrained verifies invariants 2 to 5 once the run has quiesced.
func (l *load) checkDrained() {
	c, res := l.c, l.res
	done := 0
	for _, cc := range l.clients {
		done += cc.done
	}
	if want := len(l.clients) * l.cfg.OpsPerClient; done != want {
		res.violate("completed %d of %d ops (processes wedged)", done, want)
	}
	for _, oid := range sortedOIDs(l.touched) {
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
	res.ObjectsWritten = len(l.touched)
	for id, o := range c.OSDs() {
		if ops, bytes := o.Store().PendingOps(), o.Store().PendingBytes(); ops != 0 || bytes != 0 {
			res.violate("osd.%d write-ahead state not drained: %d ops, %d bytes", id, ops, bytes)
		}
		if avail, cap := o.FsThrottle().Available(), o.FsThrottle().Capacity(); avail != cap {
			res.violate("osd.%d filestore throttle leaked: %d/%d", id, avail, cap)
		}
		if n := o.OpWQ().QueueLen() + o.OpWQ().PendingLen(); n != 0 {
			res.violate("osd.%d op queue not drained: %d items", id, n)
		}
	}
	for _, s := range c.ScrubPGLogs() {
		res.violate("pg log: %s", s)
	}
	for _, inc := range c.ScrubAll() {
		res.violate("scrub: %s %s", inc.OID, inc.Detail)
	}
}

// runPhase drives one wave of cfg.Clients stress clients to completion.
// Their reads must return the stamp of the last acked write at that offset
// (the filestore stamps extents by their exact start offset).
func (l *load) runPhase(phase int) {
	for ci := 0; ci < l.cfg.Clients; ci++ {
		img := fmt.Sprintf("stress%d.%d", phase, ci)
		seed := l.cfg.Cluster.Seed + uint64(phase)*65537 + uint64(ci)*7907 + 3
		l.start(ci, img, seed, 0, func(cc *client, off, bs int64, got uint64) {
			if want, ok := cc.model[off]; ok {
				if got != want {
					l.res.violate("client %d read off=%d bs=%d: stamp %d, want %d", cc.id, off, bs, got, want)
				} else {
					l.res.ReadVerified++
				}
			}
		})
	}
	l.c.K.Run(sim.Forever)
}

// settle lets in-flight filestore applies drain (acks only guarantee
// journaling).
func settle(c *cluster.Cluster) {
	c.K.Go("qa.settle", func(pp *sim.Proc) { pp.Sleep(2 * sim.Second) })
	c.K.Run(sim.Forever)
}

// RunStress executes the randomized workload and checks every invariant.
func RunStress(cfg StressConfig) *Result {
	c := cluster.New(cfg.Cluster)
	defer c.Close()
	res := &Result{}
	l := newLoad(c, cfg, res)
	l.runPhase(0)
	res.SimulatedTime = c.K.Now()
	settle(c)
	l.checkDrained()
	return res
}

// RunStressWithOutage runs a wave of load, fails an OSD, runs a second
// (degraded) wave, recovers the OSD, and checks that the cluster converges
// to full consistency — the QA analogue of Teuthology's thrashing tests.
func RunStressWithOutage(cfg StressConfig, failID int) *Result {
	c := cluster.New(cfg.Cluster)
	defer c.Close()
	res := &Result{}
	l := newLoad(c, cfg, res)
	l.runPhase(0)
	// Quiesce applies before failing (no in-flight ops may target the
	// victim).
	settle(c)
	c.FailOSD(failID)
	l.runPhase(1)
	settle(c)
	res.Recovered = c.RecoverOSD(failID).ObjectsCopied
	res.SimulatedTime = c.K.Now()
	settle(c)
	l.checkDrained()
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
