// Package cluster assembles the full system: server nodes with CPU pools,
// SSD RAID0 data devices and NVRAM journals, OSD daemons wired through the
// simulated network, CRUSH placement, and RBD-style clients that stripe
// block images over 4 MB objects — the paper's testbed (Figure 8) in
// simulation.
package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/crush"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/osd"
	"repro/internal/redundancy"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/store"
)

// ObjectSize is the RBD striping unit (4 MB, the Ceph default the paper
// cites when sizing the metadata cache).
const ObjectSize int64 = 4 << 20

// Params describes the testbed. It is plain data: one field per decision,
// copied freely; the component models (network, SSD, HDD) are the
// calibrated defaults of their packages.
type Params struct {
	// Topology. The paper: 4 OSD nodes x 4 OSDs, 10 SSDs per node (2-3 per
	// OSD as RAID0), one NVRAM journal device per node, 16 cores.
	OSDNodes     int
	OSDsPerNode  int
	SSDsPerOSD   int
	CoresPerNode int64
	// Placement.
	PGs uint32
	// Pool selects the redundancy policy: "repN" (N-way replication) or
	// "ecK+M" (RS(k,m) erasure coding).
	Pool string
	// Tuning.
	Allocator     cpumodel.Allocator
	ClientNoDelay bool // TCP_NODELAY on client connections (KRBD tuning)
	Sustained     bool // SSD wear state
	// UseHDD replaces the flash data devices with spinning disks — the
	// paper's §1 baseline ("current scale-out systems are designed with
	// HDD as basis").
	UseHDD bool
	// OSD is every daemon's configuration; New numbers the daemons, so
	// OSD.ID is ignored. The object-store backend (OSD.Backend) and
	// read-your-write stamps (OSD.FStore.VerifyData, memory-heavy; off for
	// big benches) live here.
	OSD  osd.Config
	Seed uint64

	// Robustness knobs — all zero by default, leaving existing runs
	// bit-identical.
	//
	// ClientOpTimeout, when positive, makes clients time out in-flight ops
	// and retry with exponential backoff against the current acting set
	// (required to survive mid-workload crashes). Zero keeps the original
	// wait-forever behaviour.
	ClientOpTimeout sim.Time
	// HeartbeatInterval, when positive, runs OSD peer heartbeats over the
	// cluster network and a monitor that marks unresponsive OSDs down
	// automatically. HeartbeatGrace is the silence threshold (defaults to
	// 4x the interval).
	HeartbeatInterval sim.Time
	HeartbeatGrace    sim.Time
	// Scrub configures the background scrub scheduler (deep scrubs with
	// read throttling and optional auto-repair); the zero value keeps it
	// off.
	Scrub ScrubParams
	// Admission, when it lists tenants, enables per-tenant token-bucket
	// admission control on every OSD. Rates are cluster-wide; New divides
	// them evenly across OSDs so enforcement stays shard-local. Ops from
	// tenantless clients (every pre-existing caller) bypass it entirely.
	Admission core.AdmissionConfig
}

// DefaultParams returns the paper's testbed shape with community OSDs.
func DefaultParams() Params { return ParamsFor(osd.Community()) }

// ParamsFor returns the paper's testbed shape running tuning t: its OSD
// configuration plus its two host settings, the allocator and Nagle.
func ParamsFor(t osd.Tuning) Params {
	alloc := cpumodel.TCMalloc
	if t.Jemalloc {
		alloc = cpumodel.JEMalloc
	}
	return Params{
		OSDNodes:      4,
		OSDsPerNode:   4,
		SSDsPerOSD:    3,
		CoresPerNode:  16,
		PGs:           1024,
		Pool:          "rep2",
		Allocator:     alloc,
		ClientNoDelay: t.NoDelay,
		Sustained:     true,
		OSD:           t.Config(),
		Seed:          1,
	}
}

// Validate reports Params New cannot build: a topology field below 1, an
// unknown object-store backend, or a pool that does not parse or is wider
// than the cluster, which would keep fewer copies or shards than the pool
// names.
func (p Params) Validate() error {
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"OSDNodes", int64(p.OSDNodes)},
		{"OSDsPerNode", int64(p.OSDsPerNode)},
		{"SSDsPerOSD", int64(p.SSDsPerOSD)},
		{"CoresPerNode", p.CoresPerNode},
		{"PGs", int64(p.PGs)},
	} {
		if f.v < 1 {
			return fmt.Errorf("%s is %d; the cluster needs at least 1", f.name, f.v)
		}
	}
	if err := store.CheckBackend(p.OSD.Backend); err != nil {
		return err
	}
	_, err := p.policy()
	return err
}

func (p Params) policy() (redundancy.Policy, error) {
	pol, err := redundancy.Parse(p.Pool)
	if err != nil {
		return nil, err
	}
	if osds := p.OSDNodes * p.OSDsPerNode; pol.Width() > osds {
		return nil, fmt.Errorf("pool %s places on %d OSDs but the cluster has %d", pol, pol.Width(), osds)
	}
	return pol, nil
}

// Cluster is a running simulated storage cluster.
type Cluster struct {
	K      *sim.Kernel
	Net    *netsim.Network
	Params Params

	cmap    *crush.Map
	pol     redundancy.Policy
	osds    []*osd.OSD
	nodes   []*cpumodel.Node
	ssds    []*device.SSD
	rnd     *rng.Rand
	clients int
	down    []bool // by OSD id
	epoch   int

	clientList  []*Client
	dataDevs    []*device.RAID0
	nvrams      []*device.NVRAM
	diskFaults  []*fault.DiskFaults
	pubNICs     []*netsim.NIC
	clusterNICs []*netsim.NIC
	hb          *hbState
	lastReplays []int // by OSD id: journal entries replayed since recovery
	scrub       *scrubState
	// integrity logs damage-related events (findings, read-repairs, EIOs,
	// heals) for time-to-detect / time-to-repair accounting. Append-only,
	// and only damage appends, so clean runs stay bit-identical.
	integrity []IntegrityEvent

	// replies recycles ack/read replies between the OSDs and clients.
	replies *osd.ReplyPool
	// actCache memoizes actingSet per PG for the current map epoch.
	actCache pgMemo[int]
}

// pgMemo memoizes a slice per PG, indexed by PG id, for one map epoch:
// CRUSH placement is pure, so entries only invalidate when the epoch
// moves. The table grows on the first store of a higher PG id. A nil
// slice reads as not memoized, and is recomputed at no allocation.
type pgMemo[E any] struct {
	epoch int
	sets  [][]E
}

// get returns pg's slice memoized in epoch, or nil.
func (m *pgMemo[E]) get(epoch int, pg uint32) []E {
	if m.epoch != epoch {
		clear(m.sets)
		m.epoch = epoch
	}
	if int(pg) < len(m.sets) {
		return m.sets[pg]
	}
	return nil
}

// put memoizes s for pg in the epoch of the last get, and returns it.
func (m *pgMemo[E]) put(pg uint32, s []E) []E {
	for len(m.sets) <= int(pg) {
		m.sets = append(m.sets, nil)
	}
	m.sets[pg] = s
	return s
}

// New builds and wires the cluster; the kernel is ready to Run. It panics on
// Params that Validate rejects.
func New(params Params) *Cluster {
	k := sim.NewKernel()
	nOSDs := params.OSDNodes * params.OSDsPerNode
	c := &Cluster{
		K:           k,
		Net:         netsim.New(k, netsim.DefaultParams()),
		Params:      params,
		rnd:         rng.New(params.Seed),
		down:        make([]bool, nOSDs),
		lastReplays: make([]int, nOSDs),
		replies:     osd.NewReplyPool(),
	}
	if err := params.Validate(); err != nil {
		panic("cluster: " + err.Error())
	}
	c.pol, _ = params.policy() // Validate checked it

	perOSDAdmission := params.Admission.PerOSD(nOSDs)

	ssdParams, hddParams := device.DefaultSSDParams(), device.DefaultHDDParams()
	var hosts []crush.Host
	id := 0
	for n := 0; n < params.OSDNodes; n++ {
		node := cpumodel.NewNode(k, fmt.Sprintf("node%d", n), params.CoresPerNode, params.Allocator)
		c.nodes = append(c.nodes, node)
		nvram := device.NewNVRAM(k, fmt.Sprintf("node%d.nvram", n), device.DefaultNVRAMParams())
		c.nvrams = append(c.nvrams, nvram)
		nicPub := c.Net.NewNIC(fmt.Sprintf("node%d.pub", n))
		nicCluster := c.Net.NewNIC(fmt.Sprintf("node%d.cluster", n))
		c.pubNICs = append(c.pubNICs, nicPub)
		c.clusterNICs = append(c.clusterNICs, nicCluster)
		host := crush.Host{Name: fmt.Sprintf("node%d", n)}
		for d := 0; d < params.OSDsPerNode; d++ {
			var members []device.Device
			for s := 0; s < params.SSDsPerOSD; s++ {
				if params.UseHDD {
					members = append(members,
						device.NewHDD(k, fmt.Sprintf("osd%d.hdd%d", id, s), hddParams, c.rnd))
					continue
				}
				ssd := device.NewSSD(k, fmt.Sprintf("osd%d.ssd%d", id, s), ssdParams, c.rnd)
				ssd.SetSustained(params.Sustained)
				c.ssds = append(c.ssds, ssd)
				members = append(members, ssd)
			}
			data := device.NewRAID0(k, fmt.Sprintf("osd%d.raid", id), 64<<10, members...)
			c.dataDevs = append(c.dataDevs, data)
			cfg := params.OSD
			cfg.ID = id
			if perOSDAdmission.Enabled() {
				cfg.Admission = perOSDAdmission
			}
			// All OSDs on a server share the server's two physical NICs:
			// public (clients) and cluster (replication), as in Figure 8.
			ep := c.Net.NewEndpointNIC(fmt.Sprintf("osd%d", id), node, nicPub, true)
			cep := c.Net.NewEndpointNIC(fmt.Sprintf("osd%d.c", id), node, nicCluster, true)
			o := osd.NewSplit(k, cfg, node, ep, cep, data, nvram, c.rnd)
			o.SetReplyPool(c.replies)
			c.osds = append(c.osds, o)
			host.OSDs = append(host.OSDs, crush.OSDInfo{ID: id, Weight: 1})
			id++
		}
		hosts = append(hosts, host)
	}
	m, err := crush.NewMap(hosts)
	if err != nil {
		panic("cluster: " + err.Error())
	}
	c.cmap = m
	c.diskFaults = make([]*fault.DiskFaults, len(c.osds))
	if params.HeartbeatInterval > 0 {
		c.startHeartbeats()
	}
	if params.Scrub.Interval > 0 {
		c.startScrub()
	}
	// Integrity hooks: OSD read-repair events land in the cluster log.
	// Installing the hook alone perturbs nothing — it fires only on damage.
	for i := range c.osds {
		id := i
		c.osds[i].SetIntegrityNote(func(oid string, kind int) {
			ik := IntegrityReadRepair
			switch kind {
			case osd.NoteRepaired:
				ik = IntegrityRepaired
			case osd.NoteEIO:
				ik = IntegrityEIO
			}
			c.noteIntegrity(c.K.Now(), id, oid, ik)
		})
	}

	// Placement: each OSD, asked about a PG it is primary for, returns the
	// replica endpoints (the rest of the CRUSH set). Results are memoized
	// per OSD until the map epoch moves; callers treat the slice as
	// read-only.
	for i := range c.osds {
		o := c.osds[i]
		var cache pgMemo[*netsim.Endpoint]
		o.SetPlacer(func(pg uint32) []*netsim.Endpoint {
			if eps := cache.get(c.epoch, pg); eps != nil {
				return eps
			}
			var eps []*netsim.Endpoint
			for _, osdID := range c.actingSet(pg) {
				if c.osds[osdID] != o {
					eps = append(eps, c.osds[osdID].ClusterEndpoint())
				}
			}
			return cache.put(pg, eps)
		})
	}
	// Redundancy policy: every OSD gets the pool's policy (the constructed
	// default is already plain replication, so this is a no-op for rep
	// pools). EC pools additionally need the shard placer — the full acting
	// set in canonical CRUSH order, Self-marked, nil for down members — so
	// a primary can gather k of k+m shards.
	for i := range c.osds {
		c.osds[i].SetPolicy(c.pol)
	}
	if c.pol.Kind() == redundancy.KindEC {
		for i := range c.osds {
			o := c.osds[i]
			self := i
			var cache pgMemo[osd.ShardTarget]
			o.SetShardPlacer(func(pg uint32) []osd.ShardTarget {
				if ts := cache.get(c.epoch, pg); ts != nil {
					return ts
				}
				set := c.cmap.PGToOSDs(pg, c.pol.Width())
				ts := make([]osd.ShardTarget, len(set))
				for j, osdID := range set {
					switch {
					case osdID == self:
						ts[j] = osd.ShardTarget{Self: true}
					case !c.down[osdID]:
						ts[j] = osd.ShardTarget{EP: c.osds[osdID].ClusterEndpoint()}
					}
				}
				return cache.put(pg, ts)
			})
		}
	}
	return c
}

// Close ends every simulated process the cluster still has parked (OSD
// workers, client and heartbeat loops), so neither their goroutines nor
// the cluster graph they reference outlive the simulation. Call it once the
// results have been read; the cluster must not run again afterwards.
func (c *Cluster) Close() { c.K.Close() }

// Policy returns the pool's redundancy policy.
func (c *Cluster) Policy() redundancy.Policy { return c.pol }

// PoolWidth is the number of distinct OSDs each PG places on: N for a repN
// pool, k+m for an ecK+M pool.
func (c *Cluster) PoolWidth() int { return c.pol.Width() }

// OSDs returns all daemons.
func (c *Cluster) OSDs() []*osd.OSD { return c.osds }

// Nodes returns the server CPU nodes.
func (c *Cluster) Nodes() []*cpumodel.Node { return c.nodes }

// Map returns the CRUSH map.
func (c *Cluster) Map() *crush.Map { return c.cmap }

// PrimaryFor returns the primary OSD for an object name.
func (c *Cluster) PrimaryFor(oid string) *osd.OSD {
	pg := crush.ObjectToPG(oid, c.Params.PGs)
	return c.osds[c.cmap.Primary(pg, c.pol.Width())]
}

// DataDevice returns an OSD's RAID0 data array.
func (c *Cluster) DataDevice(id int) *device.RAID0 { return c.dataDevs[id] }

// NVRAMs returns the per-node journal devices (write-amplification
// accounting compares their traffic against the data devices').
func (c *Cluster) NVRAMs() []*device.NVRAM { return c.nvrams }

// DiskFaults returns the fault injector for an OSD's data array, installing
// it on first use (a zero-rate injector adds no latency and draws no random
// numbers, so installation alone never perturbs a run).
func (c *Cluster) DiskFaults(id int) *fault.DiskFaults {
	if c.diskFaults[id] == nil {
		c.diskFaults[id] = fault.NewDiskFaults(c.Params.Seed ^ 0xd15cfa17 ^ uint64(id)<<32)
		c.dataDevs[id].SetFaultHook(c.diskFaults[id])
	}
	return c.diskFaults[id]
}

// AdmissionTotals sums admission decisions over all OSD enforcement points
// (zeros when admission control is off).
func (c *Cluster) AdmissionTotals() (accepted, rejected uint64) {
	for _, o := range c.osds {
		if a := o.Admission(); a != nil {
			accepted += a.Stats().Accepted.Value()
			rejected += a.Stats().Rejected.Value()
		}
	}
	return accepted, rejected
}

// AggregateLockStats sums PG lock contention across the cluster.
func (c *Cluster) AggregateLockStats() sim.MutexStats {
	var agg sim.MutexStats
	for _, o := range c.osds {
		st := o.Locks().AggregateStats()
		agg.Acquires += st.Acquires
		agg.Contended += st.Contended
		agg.WaitTime += st.WaitTime
		agg.HoldTime += st.HoldTime
		if st.MaxWait > agg.MaxWait {
			agg.MaxWait = st.MaxWait
		}
	}
	return agg
}
